"""Domain-name tests (RFC 1035 semantics)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.errors import FormError, NameTooLong
from repro.dnscore.name import MAX_LABEL_LENGTH, ROOT, Name, as_name

label_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
name_st = st.lists(label_st, min_size=0, max_size=6).map(Name)


class TestConstruction:
    def test_from_text(self):
        n = Name.from_text("www.example.com.")
        assert n.labels == ("www", "example", "com")

    def test_trailing_dot_optional(self):
        assert Name.from_text("example.com") == Name.from_text("example.com.")

    def test_root_spellings(self):
        assert Name.from_text(".") == ROOT
        assert Name.from_text("") == ROOT
        assert ROOT.is_root

    def test_case_insensitive(self):
        assert Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com")
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_empty_label_rejected(self):
        with pytest.raises(FormError):
            Name.from_text("a..b")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameTooLong):
            Name(("x" * (MAX_LABEL_LENGTH + 1),))

    def test_name_too_long_rejected(self):
        labels = tuple("a" * 63 for _ in range(5))  # 5*64 + 1 > 255
        with pytest.raises(NameTooLong):
            Name(labels)

    def test_as_name_coercion(self):
        assert as_name("example.com.") == Name.from_text("example.com")
        n = Name.from_text("x.y")
        assert as_name(n) is n


class TestStructure:
    def test_len_counts_labels(self):
        assert len(Name.from_text("a.b.c")) == 3
        assert len(ROOT) == 0

    def test_parent(self):
        assert Name.from_text("a.b.c").parent() == Name.from_text("b.c")

    def test_root_has_no_parent(self):
        with pytest.raises(FormError):
            ROOT.parent()

    def test_child(self):
        assert Name.from_text("example.com").child("www") == Name.from_text("www.example.com")

    def test_concat(self):
        assert Name(("a",)).concat(Name.from_text("b.c")) == Name.from_text("a.b.c")

    def test_is_subdomain_of(self):
        base = Name.from_text("example.com")
        assert Name.from_text("www.example.com").is_subdomain_of(base)
        assert base.is_subdomain_of(base)
        assert base.is_subdomain_of(ROOT)
        assert not Name.from_text("example.org").is_subdomain_of(base)
        assert not Name.from_text("notexample.com").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_relativize(self):
        name = Name.from_text("a.b.example.com")
        assert name.relativize(Name.from_text("example.com")) == ("a", "b")
        assert name.relativize(ROOT) == name.labels

    def test_relativize_rejects_non_subdomain(self):
        with pytest.raises(FormError):
            Name.from_text("a.org").relativize(Name.from_text("com"))

    def test_ancestors(self):
        chain = list(Name.from_text("a.b.c").ancestors())
        assert chain == [
            Name.from_text("a.b.c"),
            Name.from_text("b.c"),
            Name.from_text("c"),
            ROOT,
        ]

    def test_wildcard(self):
        w = Name.from_text("*.example.com")
        assert w.is_wildcard
        assert Name.from_text("x.example.com").wildcard_sibling() == w

    def test_wire_length(self):
        # www(4) + example(8) + com(4) + root(1) = 17
        assert Name.from_text("www.example.com").wire_length() == 17
        assert ROOT.wire_length() == 1


class TestOrdering:
    def test_canonical_order_compares_from_root(self):
        # RFC 4034: a.example < z.example < example... reversed-label order
        assert Name.from_text("a.example") < Name.from_text("z.example")
        assert Name.from_text("example") < Name.from_text("a.example")

    def test_str_roundtrip(self):
        assert str(Name.from_text("a.b.c")) == "a.b.c."
        assert str(ROOT) == "."


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(name_st)
    def test_text_roundtrip(self, name):
        assert Name.from_text(str(name)) == name

    @settings(max_examples=200, deadline=None)
    @given(name_st)
    def test_parent_child_inverse(self, name):
        if not name.is_root:
            assert name.parent().child(name.labels[0]) == name

    @settings(max_examples=200, deadline=None)
    @given(name_st, name_st)
    def test_concat_then_relativize(self, prefix, suffix):
        try:
            combined = prefix.concat(suffix)
        except NameTooLong:
            return
        assert combined.relativize(suffix) == prefix.labels

    @settings(max_examples=100, deadline=None)
    @given(name_st)
    def test_ancestors_are_supersets(self, name):
        for ancestor in name.ancestors():
            assert name.is_subdomain_of(ancestor)

    @settings(max_examples=200, deadline=None)
    @given(name_st, name_st, label_st)
    def test_derived_names_match_a_validating_construction(self, name, other, label):
        """parent/child/concat/ancestors build on the already-validated
        labels; the result (labels, hash, wire length) must be what
        ``Name(labels)`` would have produced."""
        derived = [name.child(label), name.child(label.upper()), name.concat(other)]
        derived.extend(name.ancestors())
        if not name.is_root:
            derived.append(name.parent())
        for got in derived:
            fresh = Name(got.labels)
            assert got == fresh and hash(got) == hash(fresh)
            assert got.wire_length() == fresh.wire_length()
            assert got.wire_length() == sum(len(lbl) + 1 for lbl in got.labels) + 1


class TestDerivedNameLimits:
    def test_child_normalises_and_validates_the_new_label(self):
        base = Name.from_text("example.com")
        assert base.child("WWW").labels == ("www", "example", "com")
        with pytest.raises(FormError):
            base.child("")
        with pytest.raises(NameTooLong):
            base.child("a" * (MAX_LABEL_LENGTH + 1))

    def test_combined_length_still_raises(self):
        # 3 * 64 + 1 = 193 octets, each half legal on its own
        half = Name(["a" * 63] * 3)
        with pytest.raises(NameTooLong):
            half.concat(half)
        # 254 octets; one more 1-octet label makes 256 > 255
        almost = Name(["b" * 60] + ["a" * 63] * 3)
        assert almost.wire_length() == 254
        with pytest.raises(NameTooLong):
            almost.child("c")
        assert almost.parent().child("b" * 61).wire_length() == 255


class TestMemoisedChain:
    """``parent()`` is a memo and ``child()`` links it; a walk up the chain
    must still yield exactly the names a fresh construction would."""

    @staticmethod
    def _random_labels(rng):
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
        return tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(0, 8))
        )

    def test_ancestors_equal_fresh_constructions_and_are_reused(self):
        rng = random.Random(20240918)
        for _ in range(300):
            labels = self._random_labels(rng)
            name = Name(labels)
            chain = list(name.ancestors())
            assert len(chain) == len(labels) + 1
            for i, got in enumerate(chain):
                fresh = Name(labels[i:])
                assert got.labels == fresh.labels and got == fresh
                assert hash(got) == hash(fresh)
                assert got.wire_length() == fresh.wire_length()
            assert chain[0] is name and chain[-1].is_root
            again = list(name.ancestors())
            assert all(a is b for a, b in zip(chain, again))
            if labels:
                assert name.parent() is chain[1]

    def test_child_links_its_parent(self):
        rng = random.Random(7)
        for _ in range(100):
            base = Name(self._random_labels(rng))
            child = base.child("Leaf")
            assert child.parent() is base
            assert list(child.ancestors())[1] is base
            # a name built from text has no link yet; its memo is equal, not shared
            rebuilt = Name(child.labels)
            assert rebuilt.parent() == base and rebuilt.parent() is rebuilt.parent()

    def test_concat_with_one_label_is_child_by_another_spelling(self):
        base = Name.from_text("example.com")
        assert Name(("www",)).concat(base).parent() is base
        deeper = Name.from_text("a.b").concat(base)  # no link: the memo is built on first use
        assert deeper.parent() == Name.from_text("b.example.com")
        assert [str(n) for n in deeper.ancestors()] == [
            "a.b.example.com.", "b.example.com.", "example.com.", "com.", "."]
        assert ROOT.concat(base).parent() == Name.from_text("com")

    def test_root_still_has_no_parent(self):
        for root in (ROOT, Name(()), Name.from_text("com").parent()):
            with pytest.raises(FormError):
                root.parent()
            assert list(root.ancestors()) == [ROOT]

    def test_length_limit_still_trips_through_child(self):
        name = ROOT
        for _ in range(3):
            name = name.child("a" * 63)
        name = name.child("b" * 61)  # 3 * 64 + 62 + 1 = 255 octets: the limit
        assert name.wire_length() == 255
        with pytest.raises(NameTooLong):
            name.child("c")
        with pytest.raises(NameTooLong):
            name.parent().child("b" * 62)
