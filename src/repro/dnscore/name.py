"""Domain names per RFC 1035 section 3.1.

``Name`` is an immutable sequence of labels ordered from the *most
specific* label to the root, e.g. ``www.example.com.`` has labels
``("www", "example", "com")``.  Comparison and hashing are
case-insensitive, as required for every lookup structure in the system
(caches, zones, rate-limiter tables).

Canonical DNS ordering (RFC 4034 section 6.1, labels compared from the
root down) is implemented via :meth:`Name.canonical_key`; it is what zone
lookup uses to find predecessors and closest enclosers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.dnscore.errors import FormError, NameTooLong

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


def _normalize_label(label: str) -> str:
    if not label:
        raise FormError("empty label inside a domain name")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameTooLong(f"label {label[:16]!r}... exceeds {MAX_LABEL_LENGTH} octets")
    return label.lower()


class Name:
    """An immutable, case-insensitive domain name.

    >>> n = Name.from_text("WWW.Example.COM.")
    >>> str(n)
    'www.example.com.'
    >>> n.is_subdomain_of(Name.from_text("example.com."))
    True
    """

    __slots__ = ("labels", "_hash", "_wire_len", "_parent")

    def __init__(self, labels: Iterable[str]) -> None:
        normalized = tuple(_normalize_label(lbl) for lbl in labels)
        self._set(normalized, sum(len(lbl) + 1 for lbl in normalized) + 1)

    def _set(self, normalized: Tuple[str, ...], wire_len: int) -> None:
        if wire_len > MAX_NAME_LENGTH:
            raise NameTooLong(f"name would be {wire_len} octets on the wire")
        #: a plain slot, written only here; ``hash(name) == hash(name.labels)``,
        #: so a dict keyed by labels orders and probes like one keyed by names
        self.labels = normalized
        self._hash = hash(normalized)
        self._wire_len = wire_len
        #: memo of parent(): labels never change, so nothing invalidates it
        self._parent: Optional[Name] = None

    @classmethod
    def _derived(cls, normalized: Tuple[str, ...], wire_len: int) -> "Name":
        """A name over labels of existing names (already normalised) whose
        wire length the caller derived from theirs; only that is checked."""
        name = object.__new__(cls)
        name._set(normalized, wire_len)
        return name

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a textual name. A trailing dot is accepted and implied."""
        text = text.strip()
        if text in (".", ""):
            return ROOT
        if text.endswith("."):
            text = text[:-1]
        return cls(text.split("."))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of labels (the root has zero)."""
        return len(self.labels)

    @property
    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "Name":
        """The name with the most specific label removed.

        Raises :class:`FormError` on the root, which has no parent.
        Built on first use and kept: every later call returns the same
        object.
        """
        parent = self._parent
        if parent is None:
            labels = self.labels
            if not labels:
                raise FormError("the root name has no parent")
            parent = self._parent = Name._derived(labels[1:], self._wire_len - len(labels[0]) - 1)
        return parent

    def child(self, label: str) -> "Name":
        """Prepend ``label``, producing a direct subdomain of this name.

        The child keeps this name alive as its :meth:`parent`, so build a
        shared ancestor once rather than once per descendant.
        """
        label = _normalize_label(label)
        child = Name._derived((label,) + self.labels, self._wire_len + len(label) + 1)
        child._parent = self
        return child

    def concat(self, suffix: "Name") -> "Name":
        """Concatenate: ``Name(('a',)).concat(example.com.) == a.example.com.``"""
        name = Name._derived(self.labels + suffix.labels, self._wire_len + suffix._wire_len - 1)
        if len(self.labels) == 1:
            # child() by another spelling (zone-relative owners): share
            # the suffix instead of building a private copy on first walk
            name._parent = suffix
        return name

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if this name equals ``other`` or is below it."""
        n = len(other.labels)
        if n > len(self.labels):
            return False
        return n == 0 or self.labels[-n:] == other.labels

    def ancestors(self) -> Iterator["Name"]:
        """Yield this name, then each parent up to and including the root."""
        name = self
        yield name
        while name.labels:
            name = name.parent()
            yield name

    def canonical_key(self) -> Tuple[str, ...]:
        """Sort key implementing canonical DNS ordering (RFC 4034 6.1):
        labels compared right-to-left (root side first)."""
        return tuple(reversed(self.labels))

    def wire_length(self) -> int:
        """Uncompressed wire-format length in octets."""
        return self._wire_len

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.is_root:
            return "."
        return ".".join(self.labels) + "."


#: The DNS root name (zero labels).
ROOT = Name(())


NameLike = Union[Name, str]


def as_name(value: NameLike) -> Name:
    """Coerce strings to :class:`Name`; pass names through unchanged."""
    if isinstance(value, Name):
        return value
    return Name.from_text(value)
