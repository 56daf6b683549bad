"""EDNS(0) options (RFC 6891).

Two option families matter to DCC:

- **Query attribution** (paper Section 5): the prototype repurposes the
  EDNS Client Subnet option (RFC 7871) to stamp each resolver-generated
  query with "the client's IP address, source port, and DNS request ID",
  so a non-invasive DCC shim can link every outgoing query back to the
  responsible client request.  :class:`ClientAttribution` implements this.

- **DCC signals** (paper Section 3.3): anomaly / policing / congestion
  signals are "semantically similar to and can be specified as Extended
  DNS Errors" (RFC 8914).  The typed signal classes live in
  :mod:`repro.dcc.signaling`; here we only reserve their option codes and
  provide the generic (code, payload) encode/decode plumbing.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.dnscore.errors import WireDecodeError

#: Advertised EDNS UDP payload size used by every server in the simulation.
EDNS_UDP_SIZE = 1232


class OptionCode(enum.IntEnum):
    """EDNS option codes used in this system.

    ``CLIENT_ATTRIBUTION`` squats on the Client Subnet code point exactly
    as the paper's prototype does; the DCC signal codes are from the
    experimental/local-use range (RFC 6891 allots 65001-65534).
    """

    CLIENT_SUBNET = 8
    EXTENDED_ERROR = 15
    CLIENT_ATTRIBUTION = 8  # alias: the paper repurposes Client Subnet
    DCC_ANOMALY = 65101
    DCC_POLICING = 65102
    DCC_CONGESTION = 65103


@dataclass(frozen=True)
class EdnsOption:
    """A raw EDNS option: numeric code plus opaque payload."""

    code: int
    payload: bytes
    #: set by ``ClientAttribution.encode`` to the attribution it encoded, for
    #: ``decode`` to return; not a field: equality, hash, repr, wire ignore it
    _attribution: ClassVar[Optional["ClientAttribution"]] = None

    def wire_length(self) -> int:
        return 4 + len(self.payload)


@dataclass(frozen=True)
class ClientAttribution:
    """Identity of the client request a resolver query derives from.

    ``client`` is the requesting host's address (string form), ``port``
    its source port, and ``request_id`` the DNS ID of the triggering
    request -- the exact triple the paper's modified BIND embeds.
    """

    client: str
    port: int
    request_id: int

    def encode(self) -> EdnsOption:
        addr = self.client.encode("ascii")
        payload = struct.pack("!HIB", self.port, self.request_id, len(addr)) + addr
        option = EdnsOption(OptionCode.CLIENT_ATTRIBUTION, payload)
        object.__setattr__(option, "_attribution", self)
        return option

    @classmethod
    def decode(cls, option: EdnsOption) -> "ClientAttribution":
        if option._attribution is not None:
            return option._attribution
        if len(option.payload) < 7:
            raise WireDecodeError("attribution option payload too short")
        port, request_id, addr_len = struct.unpack("!HIB", option.payload[:7])
        addr = option.payload[7 : 7 + addr_len]
        if len(addr) != addr_len:
            raise WireDecodeError("attribution option truncated address")
        return cls(client=addr.decode("ascii"), port=port, request_id=request_id)

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.client, self.port, self.request_id)


def opaque_client_token(client: str, salt: str, length: int = 12) -> str:
    """A stable, non-invertible per-client token for query attribution.

    Oblivious-DNS proxies (paper Section 6) must attribute queries to
    clients "without the need to see queries in plaintext" -- and more to
    the point, without *revealing* client identities to the upstream.
    Hashing the client identity under a proxy-private salt preserves the
    only property DCC's fairness needs (identity consistency) while
    keeping the mapping one-way: the upstream resolver treats the token
    exactly like any client address.
    """
    import hashlib

    digest = hashlib.blake2s(
        client.encode("utf-8"), salt=salt.encode("utf-8")[:8]
    ).hexdigest()
    return f"anon-{digest[:length]}"


def find_option(options: List[EdnsOption], code: int) -> Optional[EdnsOption]:
    """First option with ``code``, or ``None``."""
    for opt in options:
        if opt.code == code:
            return opt
    return None


def remove_options(options: List[EdnsOption], code: int) -> List[EdnsOption]:
    """A copy of ``options`` with every option of ``code`` removed."""
    return [opt for opt in options if opt.code != code]
