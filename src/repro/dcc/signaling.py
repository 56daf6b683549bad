"""In-band DCC signaling (paper Section 3.3).

Signals ride as EDNS options on ordinary DNS responses -- no extra
control messages, transparent to the wrapped resolver.  Three types, in
decreasing severity (the processing priority of Section 3.3.4):

- **Policing** (Section 3.3.2): "you have been policed"; carries the
  policy kind and expiry so a DCC-aware client can back off or switch
  resolvers, and so a downstream DCC raises its monitoring sensitivity.
- **Anomaly** (Section 3.3.1): "your request was anomalous"; carries the
  reason, the suspicion period, the policy that will be enforced, and a
  **countdown** of remaining alarms before conviction.  Downstream
  resolvers relay it towards the culprit (optionally lowering the
  countdown) and start policing the suspect themselves once the
  countdown falls below their threshold -- this is what confines the
  damage to the attacker in Figure 9.
- **Congestion** (Section 3.3.3): "queries were dropped by fair
  queuing"; informative only (the scheduler already enforces fairness),
  carrying the drop count and the client's current allocated rate.

Wire encoding is a compact fixed layout per type; decode tolerates and
ignores unknown payload tails for forward compatibility.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.dcc.monitor import AnomalyKind
from repro.dcc.policing import PolicyKind
from repro.dnscore.edns import EdnsOption, OptionCode
from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Message


@dataclass(frozen=True)
class AnomalySignal:
    """Attached to responses for anomalous requests from a suspect."""

    reason: AnomalyKind
    suspicion_period: float
    policy: PolicyKind
    countdown: int

    CODE = OptionCode.DCC_ANOMALY
    SEVERITY = 2

    def encode(self) -> EdnsOption:
        payload = struct.pack(
            "!BfBH", int(self.reason), self.suspicion_period, int(self.policy), self.countdown
        )
        return EdnsOption(self.CODE, payload)

    @classmethod
    def decode(cls, option: EdnsOption) -> "AnomalySignal":
        if len(option.payload) < 8:
            raise WireDecodeError("anomaly signal payload too short")
        reason, period, policy, countdown = struct.unpack("!BfBH", option.payload[:8])
        return cls(AnomalyKind(reason), period, PolicyKind(policy), countdown)

    def with_countdown(self, countdown: int) -> "AnomalySignal":
        """Relay copy with a (typically lowered) countdown."""
        return AnomalySignal(self.reason, self.suspicion_period, self.policy, countdown)


@dataclass(frozen=True)
class PolicingSignal:
    """Attached to responses that failed because the client is policed."""

    policy: PolicyKind
    expires_in: float
    reason: Optional[AnomalyKind] = None

    CODE = OptionCode.DCC_POLICING
    SEVERITY = 3

    def encode(self) -> EdnsOption:
        reason = int(self.reason) if self.reason is not None else 0
        payload = struct.pack("!BfB", int(self.policy), self.expires_in, reason)
        return EdnsOption(self.CODE, payload)

    @classmethod
    def decode(cls, option: EdnsOption) -> "PolicingSignal":
        if len(option.payload) < 6:
            raise WireDecodeError("policing signal payload too short")
        policy, expires_in, reason = struct.unpack("!BfB", option.payload[:6])
        return cls(PolicyKind(policy), expires_in, AnomalyKind(reason) if reason else None)


@dataclass(frozen=True)
class CongestionSignal:
    """Attached when a request failed due to channel congestion."""

    dropped: int
    allocated_rate: float

    CODE = OptionCode.DCC_CONGESTION
    SEVERITY = 1

    def encode(self) -> EdnsOption:
        payload = struct.pack("!If", self.dropped, self.allocated_rate)
        return EdnsOption(self.CODE, payload)

    @classmethod
    def decode(cls, option: EdnsOption) -> "CongestionSignal":
        if len(option.payload) < 8:
            raise WireDecodeError("congestion signal payload too short")
        dropped, rate = struct.unpack("!If", option.payload[:8])
        return cls(dropped, rate)


Signal = Union[AnomalySignal, PolicingSignal, CongestionSignal]

_DECODERS = {
    int(OptionCode.DCC_ANOMALY): AnomalySignal.decode,
    int(OptionCode.DCC_POLICING): PolicingSignal.decode,
    int(OptionCode.DCC_CONGESTION): CongestionSignal.decode,
}

_SIGNAL_CODES = set(_DECODERS)


def extract_signals(message: Message, strip: bool = True) -> List[Signal]:
    """Decode every DCC signal on ``message``.

    With ``strip`` (the default), the signal options are removed so the
    wrapped resolver never sees them -- the transparency requirement of
    Section 3.3.
    """
    if not message.edns_options:
        return []
    signals: List[Signal] = []
    remaining: List[EdnsOption] = []
    for option in message.edns_options:
        decoder = _DECODERS.get(option.code)
        if decoder is None:
            remaining.append(option)
            continue
        signals.append(decoder(option))
    if strip:
        message.edns_options = remaining
    signals.sort(key=lambda s: -s.SEVERITY)
    return signals


def attach_signal(message: Message, signal: Signal, prefer_existing: bool = True) -> bool:
    """Add ``signal`` to ``message``.

    One signal per type per response (Section 3.3.4).  With
    ``prefer_existing``, an already-attached signal of the same type wins
    -- that is the paper's rule that an upstream-originated signal has
    priority over a locally-generated one ("it has a bigger impact on
    the resolver as a whole").  Returns True if the signal was attached.
    """
    code = int(signal.CODE)
    for option in message.edns_options:
        if option.code == code:
            if prefer_existing:
                return False
            message.edns_options = [o for o in message.edns_options if o.code != code]
            break
    message.edns_options.append(signal.encode())
    return True


_SIGNAL_NAMES = {
    AnomalySignal: "anomaly",
    PolicingSignal: "policing",
    CongestionSignal: "congestion",
}


def signal_name(signal: Signal) -> str:
    """Short lowercase label for a signal (observability annotations)."""
    return _SIGNAL_NAMES.get(type(signal), type(signal).__name__.lower())


def has_signal(message: Message, code: OptionCode) -> bool:
    return any(option.code == int(code) for option in message.edns_options)


def strip_all_signals(message: Message) -> None:
    message.edns_options = [
        option for option in message.edns_options if option.code not in _SIGNAL_CODES
    ]
