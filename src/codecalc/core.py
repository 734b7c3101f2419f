"""Shared types for signed, index-valued results, plus index parsing/classification.

Every straightening routine in this package returns a :class:`SignedIndexResult`:
either the zero result, or a sign in {+1, -1} attached to a tuple of row lengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Composition = tuple[int, ...]


# json.dumps builds a new encoder on every call once it gets non-default
# arguments; one shared encoder gives the same bytes for less work.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Serialize deterministically: sorted keys, no whitespace.

    Canonical output round-trips byte-identically through json.loads.
    """
    return _CANONICAL.encode(obj)


class CalcError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(CalcError):
    """Raised when a textual index or letter word cannot be parsed."""


class DomainError(CalcError):
    """Raised when an input lies outside an operation's domain."""


class InvalidCodeError(CalcError):
    """Raised when a letter word is not the code of a valid index."""


class InternalInvariantError(CalcError):
    """Raised when an internal cross-check fails; always indicates a bug."""


@dataclass(frozen=True)
class SignedIndexResult:
    """The zero result (sign 0, empty index) or a signed index (sign +-1)."""

    sign: int
    index: Composition = ()

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.index != ():
            raise DomainError("the zero result carries no index")
        if not all(type(p) is int for p in self.index):
            raise DomainError(f"index entries must be ints, got {self.index!r}")

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_dict(self) -> dict:
        """JSON-ready form: {"zero": true} or {"sign": s, "index": [...]}."""
        if self.is_zero:
            return {"zero": True}
        return {"sign": self.sign, "index": list(self.index)}


ZERO = SignedIndexResult(0)


def signed_result(sign_exponent: int, index: Composition) -> SignedIndexResult:
    """Build a nonzero result with sign (-1)**sign_exponent."""
    return SignedIndexResult(-1 if sign_exponent % 2 else 1, tuple(index))


def negate(result: SignedIndexResult) -> SignedIndexResult:
    """Flip the sign; negating the zero result is still zero."""
    if result.is_zero:
        return result
    return SignedIndexResult(-result.sign, result.index)


_INDEX_CHARS = frozenset("0123456789-, \t\n\r\f\v")


def parse_index(text: str) -> Composition:
    """Parse a comma- or space-separated index like "1,3,1,6,2"; "" is the empty index.

    Entries are ASCII integers (-?[0-9]+), separated by whitespace or by one
    comma with optional whitespace around it.
    """
    # The character check leaves int() nothing but -?[0-9]+ to accept.
    if not _INDEX_CHARS.issuperset(text):
        raise ParseError(f"not an index: {text!r}")
    if "," in text:
        flat = "".join(text.split())
        if flat[0] == "," or flat[-1] == "," or ",," in flat:
            raise ParseError(f"not an index (empty entry at a comma): {text!r}")
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:
        raise ParseError(f"not an index: {text!r}") from None


def render_index(parts: Composition) -> str:
    """Inverse of parse_index: "1,3,1,6,2" for (1, 3, 1, 6, 2), "" for ()."""
    return ",".join(str(p) for p in parts)


def validate_composition(parts: Composition, *, minimum: int = 0) -> Composition:
    """Return parts as a tuple after checking every entry is an int >= minimum."""
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool):
            raise DomainError(f"index entries must be ints, got {p!r}")
        if p < minimum:
            raise DomainError(f"index entry {p} is below the allowed minimum {minimum}")
    return parts


# Largest i_max / n_max a series accepts.  Each term costs time linear in the
# code word, whatever i is, so the cap bounds the size of the answer: a series
# has at most SERIES_MAX + 1 terms.
SERIES_MAX = 10_000


def check_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise DomainError unless value is an int (not a bool) in minimum..maximum."""
    if not isinstance(value, int) or isinstance(value, bool) or (
        minimum is not None and value < minimum
    ):
        floor = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{name} must be an int{floor}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {value!r}")


def is_partition(parts: Composition) -> bool:
    """True when parts is weakly decreasing with nonnegative entries."""
    return all(p >= 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_strict_partition(parts: Composition) -> bool:
    """True when parts is strictly decreasing with nonnegative entries.

    Strictness forces at most one zero entry, necessarily in last position.
    """
    return all(p >= 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


def classify(parts: Composition) -> str:
    """Classify an index as "strict-partition", "partition" or "general"."""
    validate_composition(parts)
    if is_strict_partition(parts):
        return "strict-partition"
    if is_partition(parts):
        return "partition"
    return "general"
