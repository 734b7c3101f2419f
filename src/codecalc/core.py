"""Shared types for signed, index-valued results, plus index parsing/classification.

Every straightening routine in this package returns a :class:`SignedIndexResult`:
either the zero result, or a sign in {+1, -1} attached to a tuple of row lengths.
"""

import sys
from operator import ge, gt

Composition = tuple[int, ...]

# The marker-free C encoder from _json, built on canonical_json's first call
# (False where _json is missing).  It keeps no state between calls, so one
# serves every answer, and an answer loads _json and not the json package with
# its decoder and Python encoder.  json.dumps takes the values it refuses.
_STATELESS = None

# Highest recursion limit at which canonical_json runs the marker-free encoder.
# That encoder finds a cycle only by running into the recursion limit, and on
# Python 3.10 and 3.11 its depth is bounded by nothing else: at a limit of
# 200,000 a cyclic list overflowed the C stack of 3.11.7.
_STATELESS_DEPTH = 10_000


def _not_serializable(obj):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Serialize deterministically: sorted keys, no whitespace.

    Canonical output round-trips byte-identically through json.loads.
    """
    global _STATELESS
    if _STATELESS is None:
        try:
            from _json import encode_basestring_ascii, make_encoder
        except ImportError:
            _STATELESS = False
        else:
            # what json.dumps(obj, sort_keys=True, separators=(",", ":")) hands
            # the C encoder, markers aside; the default raises as json's does
            _STATELESS = make_encoder(
                None, _not_serializable, encode_basestring_ascii, None, ":", ",", True, False, True
            )
    if _STATELESS and sys.getrecursionlimit() <= _STATELESS_DEPTH:
        try:
            return "".join(_STATELESS(obj, 0))
        except RecursionError:
            pass  # a cycle or nesting past the limit: json.dumps says which
    # fresh markers, so a cycle raises ValueError; json's Python encoder without _json
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


class _Value:
    """Base of the immutable value types: fields in ``__slots__``, named in
    ``__match_args__`` in constructor order.  As with a frozen dataclass, a
    value compares by type and fields, hashes by fields, prints the dataclass
    repr and refuses assignment; pickle rebuilds it through its checking
    constructor, and a copy is the value itself, as for a tuple.  ``==`` and
    hash read the ``__slots__``: ``CodeWord``'s runs, not the letters
    rendered from them.

    ``cls._make(*slots)``, the one setter, builds a value from its ``__slots__``
    in order.  A public constructor is a ``__new__`` that checks its arguments
    and returns ``cls._make``; the routes call ``_make`` alone, as their values
    pass the checks (tests/test_core.py compares them with checked ones)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__match_args__" not in cls.__dict__:
            return
        # Compiled per type, as dataclasses does: reading the fields through
        # operator.attrgetter made == and hash about 1.7x slower, and setting
        # them through object.__setattr__ made _make about 1.4x slower.
        slots = cls.__slots__
        mine = "".join(f"self.{name}, " for name in slots)
        theirs = mine.replace("self.", "other.")
        namespace = {f"_set{name}": cls.__dict__[name].__set__ for name in slots}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n"
            f"def _make(cls, {', '.join(slots)}):\n"
            "    self = object.__new__(cls)\n"
            + "".join(f"    _set{name}(self, {name})\n" for name in slots)
            + "    return self\n",
            namespace,
        )
        cls.__eq__, cls.__hash__ = namespace["__eq__"], namespace["__hash__"]
        cls._make = classmethod(namespace["_make"])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__


def _int_index(index) -> Composition:
    """``index`` as a tuple, checked to hold exact ints (no bools): the check
    the public constructors of the result and term types make."""
    parts = tuple(index)
    if not all(type(p) is int for p in parts):
        raise DomainError(f"index entries must be ints, got {index!r}")
    return parts


def _check_exact_ints(**fields) -> None:
    """Raise DomainError unless every field is an exact int (not a bool)."""
    for name, value in fields.items():
        if type(value) is not int:
            raise DomainError(f"{name} must be an int, got {value!r}")


class SignedIndexResult(_Value):
    """The zero result (sign 0, empty index) or a signed index (sign +-1)."""

    __slots__ = __match_args__ = ("sign", "index")

    def __new__(cls, sign: int, index: Composition = ()):
        parts = _int_index(index)
        if type(sign) is not int or sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {sign!r}")
        if sign == 0 and parts:
            raise DomainError("the zero result carries no index")
        return cls._make(sign, parts)

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
    """Build a nonzero result with sign (-1)**sign_exponent from a tuple of
    ints the package computed, skipping the constructor's checks."""
    return SignedIndexResult._make(-1 if sign_exponent % 2 else 1, index)


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
    return ",".join(map(str, parts))


def _exact(value):
    """An int subclass's value as an exact int, read by int's own method so the
    subclass's overrides never run; any other value as it is."""
    if type(value) is not int and isinstance(value, int) and not isinstance(value, bool):
        return int.__index__(value)
    return value


def validate_composition(parts: Composition, *, minimum: int | None = 0) -> Composition:
    """Return parts as a tuple of exact ints after checking every entry is an
    int >= minimum (any int when minimum is None).  Entries of an int subclass
    come back as ints; a tuple of exact ints comes back as is."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            if not isinstance(p, int) or isinstance(p, bool):
                raise DomainError(f"index entries must be ints, got {p!r}")
            return validate_composition(tuple(map(_exact, parts)), minimum=minimum)
        if minimum is not None and p < minimum:
            raise DomainError(f"index entry {p} is below the allowed minimum {minimum}")
    return parts


# Largest i_max / n_max a series accepts.  A series walks its code word once,
# a cursor moving to the run that holds each term's R, and each term is one
# C-level copy of the rows: O(rows) a term whatever i and the parts are.  So
# the cap bounds the size of the answer: a series has at most SERIES_MAX + 1
# terms.
SERIES_MAX = 10_000


def check_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """Return value as an exact int; raise DomainError unless it is an int (not
    a bool) in minimum..maximum."""
    if type(value) is not int:
        value = _exact(value)
    if type(value) is not int or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{name} must be an int{floor}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {value!r}")
    return value


def is_partition(parts: Composition) -> bool:
    """True when parts is weakly decreasing with nonnegative entries."""
    return not parts or (parts[-1] >= 0 and all(map(ge, parts, parts[1:])))


def is_strict_partition(parts: Composition) -> bool:
    """True when parts is strictly decreasing with nonnegative entries.

    Strictness forces at most one zero entry, necessarily in last position.
    """
    return not parts or (parts[-1] >= 0 and all(map(gt, parts, parts[1:])))


def classify(parts: Composition) -> str:
    """Classify an index as "strict-partition", "partition" or "general"."""
    validate_composition(parts)
    if is_strict_partition(parts):
        return "strict-partition"
    if is_partition(parts):
        return "partition"
    return "general"
