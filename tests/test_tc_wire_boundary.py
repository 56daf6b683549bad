"""TC truncation at the exact EDNS 1232-octet boundary, on real wire bytes.

``test_truncation.py`` pins the message-object behaviour; this file
pins the boundary itself: responses are tuned so the server's
truncation metric (``Message.wire_length()``) lands on exactly
``EDNS_UDP_SIZE`` (1232) and ``EDNS_UDP_SIZE + 1``, and the outcomes
are asserted after a real ``encode_message``/``decode_message`` round
trip -- the same bytes a datagram would carry.

``wire_length()`` counts names uncompressed, so it upper-bounds the
encoded size for any response whose owner names compress against the
question (every answer here does); that is what makes it safe as the
truncation decision metric.
"""

from repro.dnscore.edns import EDNS_UDP_SIZE
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType, TXTData
from repro.dnscore.wire import decode_message, encode_message
from repro.dnscore.zone import Zone
from repro.server.authoritative import AuthoritativeServer

AUTH_ADDR = "10.0.0.2"
QNAME = Name.from_text("fat.big.test.")


def _auth_with_payload(target_size: int) -> AuthoritativeServer:
    """An authoritative server whose answer for ``QNAME`` measures
    exactly ``target_size`` octets by the server's truncation metric.

    TXT rdata costs one octet per character, so after measuring a probe
    zone the last record's text is stretched by the exact shortfall.
    """

    def build(last_len: int) -> AuthoritativeServer:
        zone = Zone("big.test.", default_ttl=60)
        zone.add_soa()
        lengths = [200] * 5 + [last_len]
        for i, length in enumerate(lengths):
            zone.add("fat", TXTData(f"{i:02d}" + "x" * (length - 2)))
        auth = AuthoritativeServer(AUTH_ADDR, zones=[zone])
        auth.udp_payload_limit = EDNS_UDP_SIZE
        return auth

    probe = build(100)
    probe_size = probe.answer(Message.query(QNAME, RRType.TXT)).wire_length()
    last_len = 100 + (target_size - probe_size)
    assert 2 < last_len <= 255, f"tuning fell outside TXT limits: {last_len}"
    auth = build(last_len)
    assert auth.answer(Message.query(QNAME, RRType.TXT)).wire_length() == target_size
    return auth


def _serve(auth: AuthoritativeServer, query: Message) -> Message:
    """The server's UDP datagram for ``query``, after a wire round trip."""
    response = auth.answer(query)
    if (
        auth.udp_payload_limit is not None
        and not query.via_tcp
        and response.wire_length() > auth.udp_payload_limit
    ):
        response = response.truncate()
    return decode_message(encode_message(response))


class TestEdnsBoundary:
    def test_exactly_1232_fits_untruncated(self):
        auth = _auth_with_payload(EDNS_UDP_SIZE)
        response = _serve(auth, Message.query(QNAME, RRType.TXT))
        assert not response.is_truncated
        assert sum(len(rrset) for rrset in response.answers) == 6

    def test_one_octet_over_truncates(self):
        auth = _auth_with_payload(EDNS_UDP_SIZE + 1)
        response = _serve(auth, Message.query(QNAME, RRType.TXT))
        assert response.is_truncated
        assert not response.answers

    def test_shipped_datagram_never_exceeds_the_advertised_size(self):
        # at the metric boundary the *encoded* datagram must still fit:
        # name compression only shrinks, so metric <= limit => bytes <= limit
        auth = _auth_with_payload(EDNS_UDP_SIZE)
        full = auth.answer(Message.query(QNAME, RRType.TXT))
        assert len(encode_message(full)) <= EDNS_UDP_SIZE

    def test_truncated_datagram_fits_and_round_trips(self):
        auth = _auth_with_payload(EDNS_UDP_SIZE + 1)
        full = auth.answer(Message.query(QNAME, RRType.TXT))
        truncated_wire = encode_message(full.truncate())
        assert len(truncated_wire) <= EDNS_UDP_SIZE
        decoded = decode_message(truncated_wire)
        assert decoded.is_truncated
        assert decoded.question.name == QNAME
        assert decoded.id == full.id & 0xFFFF

    def test_tcp_carries_the_oversize_answer(self):
        auth = _auth_with_payload(EDNS_UDP_SIZE + 1)
        query = Message.query(QNAME, RRType.TXT)
        query.via_tcp = True
        response = _serve(auth, query)
        assert not response.is_truncated
        assert sum(len(rrset) for rrset in response.answers) == 6
