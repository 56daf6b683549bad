"""DNS message and EDNS option tests."""

import dataclasses
import itertools

import pytest

from repro.dnscore.edns import (
    ClientAttribution,
    EdnsOption,
    OptionCode,
    find_option,
    remove_options,
)
from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Flags, Message, Question
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RCode, RRType, NSData
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.wire import decode_message, encode_message

QNAME = Name.from_text("www.example.com.")


class TestMessage:
    def test_query_construction(self):
        q = Message.query(QNAME, RRType.A)
        assert q.is_query
        assert not q.is_response
        assert q.flags & Flags.RD
        assert q.question == Question(QNAME, RRType.A)

    def test_query_without_rd(self):
        q = Message.query(QNAME, RRType.A, recursion_desired=False)
        assert not (q.flags & Flags.RD)

    def test_unique_ids(self):
        ids = {Message.query(QNAME, RRType.A).id for _ in range(100)}
        assert len(ids) == 100

    def test_make_response_echoes_id_and_question(self):
        q = Message.query(QNAME, RRType.A)
        r = q.make_response(RCode.NXDOMAIN)
        assert r.id == q.id
        assert r.question == q.question
        assert r.is_response
        assert r.rcode == RCode.NXDOMAIN
        assert r.flags & Flags.RA  # RD was set, RA reflected

    def test_referral_classification(self):
        q = Message.query(QNAME, RRType.A)
        r = q.make_response()
        ns = RRSet.of(ResourceRecord(Name.from_text("example.com."), 300,
                                     NSData(Name.from_text("ns1.example.com."))))
        r.authority.append(ns)
        assert r.is_referral

    def test_answer_not_nodata(self):
        r = Message.query(QNAME, RRType.A).make_response()
        r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert r.answer_rrset().rrtype == RRType.A
        assert r.answer_rrset(RRType.NS) is None

    def test_wire_length_grows_with_content(self):
        q = Message.query(QNAME, RRType.A)
        base = q.wire_length()
        q.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert q.wire_length() > base


class TestClientAttribution:
    def test_roundtrip(self):
        attr = ClientAttribution(client="10.1.2.3", port=5353, request_id=987654)
        decoded = ClientAttribution.decode(attr.encode())
        assert decoded == attr
        assert (decoded.client, decoded.port, decoded.request_id) == ("10.1.2.3", 5353, 987654)

    def test_large_request_id(self):
        """Simulation IDs are 31-bit; the option must carry them."""
        attr = ClientAttribution(client="10.0.0.1", port=0, request_id=2**30 + 5)
        assert ClientAttribution.decode(attr.encode()).request_id == 2**30 + 5

    def test_truncated_payload_rejected(self):
        with pytest.raises(WireDecodeError):
            ClientAttribution.decode(EdnsOption(OptionCode.CLIENT_ATTRIBUTION, b"\x00\x01"))

    def test_truncated_address_rejected(self):
        attr = ClientAttribution(client="10.1.2.3", port=1, request_id=2)
        option = attr.encode()
        with pytest.raises(WireDecodeError):
            ClientAttribution.decode(EdnsOption(option.code, option.payload[:-2]))


class TestAttributionMemo:
    """``encode()`` remembers the attribution on the option it builds, so
    the shim's per-query decode is a read; every other option parses."""

    ATTR = ClientAttribution(client="10.1.2.3", port=5353, request_id=987654)

    def test_decoding_the_encoded_option_returns_the_attribution_itself(self):
        option = self.ATTR.encode()
        assert ClientAttribution.decode(option) is self.ATTR
        assert ClientAttribution.decode(option) is self.ATTR  # and keeps doing so

    def test_options_from_bytes_or_the_constructor_parse_their_payload(self):
        query = Message.query(QNAME, RRType.A)
        query.edns_options.append(self.ATTR.encode())
        (from_wire,) = decode_message(encode_message(query)).edns_options
        built = EdnsOption(OptionCode.CLIENT_ATTRIBUTION, self.ATTR.encode().payload)
        for option in (from_wire, built):
            decoded = ClientAttribution.decode(option)
            assert decoded == self.ATTR and decoded is not self.ATTR

    @pytest.mark.parametrize("kept, message", [(slice(0, 5), "too short"), (slice(0, -2), "truncated address")])
    def test_short_or_truncated_payloads_from_the_wire_still_raise(self, kept, message):
        query = Message.query(QNAME, RRType.A)
        query.edns_options.append(EdnsOption(OptionCode.CLIENT_ATTRIBUTION, self.ATTR.encode().payload[kept]))
        (option,) = decode_message(encode_message(query)).edns_options
        with pytest.raises(WireDecodeError, match=message):
            ClientAttribution.decode(option)

    def test_equality_hash_repr_and_wire_form_ignore_the_memo(self):
        option = self.ATTR.encode()
        plain = EdnsOption(option.code, option.payload)
        assert option == plain and plain == option and hash(option) == hash(plain)
        assert repr(option) == repr(plain)
        assert [field.name for field in dataclasses.fields(EdnsOption)] == ["code", "payload"]
        wires = []
        for carried in (option, plain):
            query = Message.query(QNAME, RRType.A)
            query.id = 4242
            query.edns_options.append(carried)
            wires.append(encode_message(query))
        assert wires[0] == wires[1] and option.wire_length() == plain.wire_length()


class TestOptionHelpers:
    def test_find_option(self):
        options = [EdnsOption(1, b"a"), EdnsOption(2, b"b")]
        assert find_option(options, 2).payload == b"b"
        assert find_option(options, 3) is None

    def test_remove_options(self):
        options = [EdnsOption(1, b"a"), EdnsOption(2, b"b"), EdnsOption(1, b"c")]
        remaining = remove_options(options, 1)
        assert [o.code for o in remaining] == [2]

    def test_message_find_edns(self):
        q = Message.query(QNAME, RRType.A)
        q.edns_options.append(EdnsOption(9, b"zz"))
        assert q.find_edns(9).payload == b"zz"
        assert q.find_edns(10) is None


def _reference_make_response_flags(flags):
    """``make_response`` as the enum arithmetic it replaced."""
    out = Flags.QR
    if flags & Flags.RD:
        out |= Flags.RD | Flags.RA
    return out


def _assert_flag_tests_match_enum_arithmetic(message):
    flags = message.flags
    assert message.is_response is bool(flags & Flags.QR)
    assert message.is_query is (not bool(flags & Flags.QR))
    assert message.is_truncated is bool(flags & Flags.TC)
    response = message.make_response()
    assert response.flags == _reference_make_response_flags(flags)
    assert isinstance(response.flags, Flags)
    assert (response.id, response.question) == (message.id, message.question)


class TestIntegerFlagTests:
    """The classification properties test ``flags._value_`` against integer
    masks; they must agree with ``IntFlag`` arithmetic on every flag word."""

    def test_all_combinations_of_the_five_header_bits(self):
        bits = (Flags.QR, Flags.AA, Flags.TC, Flags.RD, Flags.RA)
        seen = set()
        for picks in itertools.product((False, True), repeat=len(bits)):
            flags = Flags(0)
            for bit, on in zip(bits, picks):
                if on:
                    flags |= bit
            seen.add(int(flags))
            _assert_flag_tests_match_enum_arithmetic(
                Message(question=Question(QNAME, RRType.A), flags=flags))
        assert len(seen) == 32

    @pytest.mark.parametrize("extra", [0x0040, 0x0020, 0x0010, 0x0070])
    def test_decoded_flag_words_with_z_ad_cd_bits(self, extra):
        for base in (Flags(0), Flags.RD, Flags.QR | Flags.TC, Flags.QR | Flags.AA | Flags.RD | Flags.RA):
            wire = bytearray(encode_message(Message(question=Question(QNAME, RRType.A), flags=base)))
            word = int.from_bytes(wire[2:4], "big") | extra
            wire[2:4] = word.to_bytes(2, "big")
            decoded = decode_message(bytes(wire))
            assert int(decoded.flags) == int(base) | extra
            _assert_flag_tests_match_enum_arithmetic(decoded)

    def test_query_constructor_flags(self):
        assert Message.query(QNAME, RRType.A).flags == Flags.RD
        assert Message.query(QNAME, RRType.A, recursion_desired=False).flags == Flags(0)
        assert Message(question=Question(QNAME, RRType.A)).flags == Flags(0)


class TestWireLengthIsRecomputed:
    """Messages are mutated after construction (the resolver strips the
    attribution option, the shim attaches signals, servers append
    sections), so ``Message.wire_length()`` caches nothing."""

    @staticmethod
    def _from_scratch(message):
        size = 12 + message.question.name.wire_length() + 4
        for section in (message.answers, message.authority, message.additional):
            for rrset in section:
                size += sum(rec.wire_length() for rec in rrset)
        if message.edns_options:
            size += 11 + sum(opt.wire_length() for opt in message.edns_options)
        return size

    def test_tracks_every_mutation(self):
        message = Message.query(QNAME, RRType.A)
        assert message.wire_length() == self._from_scratch(message)
        message.edns_options.append(ClientAttribution("10.0.0.7", 99, 3).encode())
        with_option = message.wire_length()
        assert with_option == self._from_scratch(message) > 12 + QNAME.wire_length() + 4
        message.edns_options = remove_options(message.edns_options, OptionCode.CLIENT_ATTRIBUTION)
        assert message.wire_length() == self._from_scratch(message) < with_option

        response = message.make_response()
        before = response.wire_length()
        rrset = RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4")))
        response.answers.append(rrset)
        assert response.wire_length() == self._from_scratch(response) == before + rrset.wire_length()
        # the RRset's own cached size moves with add(), and the message follows
        rrset.add(ResourceRecord(QNAME, 30, AData("5.6.7.8")))
        assert response.wire_length() == self._from_scratch(response)
        response.authority.append(RRSet.of(ResourceRecord(QNAME, 60, NSData(QNAME))))
        assert response.wire_length() == self._from_scratch(response)
        del response.answers[:]
        assert response.wire_length() == self._from_scratch(response)

    @staticmethod
    def _generator_form(message):
        """``wire_length`` as it was written before the loop form."""
        size = 12 + message.question.wire_length()
        for section in (message.answers, message.authority, message.additional):
            size += sum(rrset.wire_length() for rrset in section)
        if message.edns_options:
            size += 11 + sum(opt.wire_length() for opt in message.edns_options)
        return size

    def test_loop_form_equals_the_generator_form_on_random_messages(self):
        import random

        rng = random.Random(19)

        def random_rrset():
            owner = QNAME.child(f"h{rng.randrange(1000)}")
            return RRSet.of(*(ResourceRecord(owner, rng.randrange(1, 600), AData(f"10.0.{i}.{rng.randrange(256)}"))
                              for i in range(rng.randrange(1, 4))))

        for _ in range(200):
            message = Message.query(QNAME.child(f"q{rng.randrange(10**6)}"), RRType.A).make_response()
            for section in (message.answers, message.authority, message.additional):
                section.extend(random_rrset() for _ in range(rng.randrange(4)))
            for i in range(rng.randrange(3)):
                message.edns_options.append(EdnsOption(65001 + i, bytes(rng.randrange(0, 24))))
            assert message.wire_length() == self._generator_form(message) == self._from_scratch(message)
            # mutate one thing of each kind and measure again
            message.additional.append(random_rrset())
            if message.answers:
                message.answers[0].add(ResourceRecord(message.answers[0].name, 5, AData("192.0.2.99")))
            message.edns_options = message.edns_options[1:]
            assert message.wire_length() == self._generator_form(message) == self._from_scratch(message)


class TestQuestion:
    """A named tuple since the per-query path builds one per message: still
    a value (equal, hashable, immutable) shared by a query and its responses."""

    def test_equal_hashable_immutable(self):
        question = Question(QNAME, RRType.A)
        assert question == Question(Name.from_text("WWW.example.com."), RRType.A)
        assert question != Question(QNAME, RRType.AAAA)
        assert hash(question) == hash(Question(QNAME, RRType.A))
        assert len({question, Question(QNAME, RRType.A), Question(QNAME, RRType.NS)}) == 2
        with pytest.raises(AttributeError):
            question.name = QNAME.parent()
        with pytest.raises(AttributeError):
            question.extra = 1
        assert (question.name, question.rrtype) == (QNAME, RRType.A)

    def test_text_and_size_unchanged(self):
        question = Question(QNAME, RRType.A)
        assert str(question) == "www.example.com. A"
        assert question.wire_length() == QNAME.wire_length() + 4

    def test_shared_by_a_query_and_its_responses_and_survives_the_wire(self):
        query = Message.query(QNAME, RRType.NS)
        assert query.make_response().question is query.question
        assert query.truncate().question is query.question
        assert decode_message(encode_message(query)).question == query.question
        assert hash(decode_message(encode_message(query)).question) == hash(query.question)

    def test_query_ids(self):
        """``Message.query`` draws a fresh id unless handed one."""
        first, second = Message.query(QNAME, RRType.A), Message.query(QNAME, RRType.A)
        assert second.id == first.id + 1
        assert Message.query(QNAME, RRType.A, msg_id=77).id == 77
        assert Message.query(QNAME, RRType.A, msg_id=0).id == 0
        assert not Message.query(QNAME, RRType.A, recursion_desired=False).flags & Flags.RD
