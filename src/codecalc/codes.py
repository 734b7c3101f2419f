"""Lattice-word codes for indexes, and the code-level straightening rules.

An index (weak composition) is encoded as a finite word over the alphabet
{R, L, U} describing the right edge of its row diagram, read bottom-up: the
stored word is conceptually preceded by infinitely many U's and followed by
infinitely many R's.  R and L are mutually inverse horizontal steps and cancel
as neighbours; U never cancels.  The finite word of an index with rows
(m_1, ..., m_l) carries exactly m_1 R's (net) and exactly l U's, one per row,
and ends with a U whenever it is nonempty.  Leading U's encode zero rows, so
distinct indexes always get distinct words.

Straightening rewrites a word containing L's (rows out of order) into either
the zero result or a signed word without L's (a partition), by repeatedly
exchanging the leftmost L-run with a letter to its left.  One loop applies the
step of every rule in ``RULES`` (plain, shifted, Q, reading); the
straighteners sum it, and verify checks each word it yields.

A shifted word (Schur-Q side, strict indexes with positive rows) is the same
kind of word read with its rows offset by a staircase: the k-th U from the
left sits k columns further right, so its row is the plain row plus k.  The
class constant ``shift`` (0 plain, 1 shifted) is the only difference between
the two styles; it fixes the origin offset and the minimum row.
"""

from __future__ import annotations

from .core import (
    Composition,
    InternalInvariantError,
    InvalidCodeError,
    SignedIndexResult,
    ZERO,
    _Value,
    signed_result,
    validate_composition,
)

ALPHABET = frozenset("RLU")


def _reduce(seq) -> list[str]:
    """Cancel adjacent RL / LR pairs in one left-to-right pass."""
    out: list[str] = []
    for ch in seq:
        if out and ch != "U" and out[-1] != "U" and out[-1] != ch:
            out.pop()
        else:
            out.append(ch)
    return out


def _check_alphabet(letters) -> None:
    if not ALPHABET.issuperset(letters):
        bad = next(ch for ch in letters if ch not in ALPHABET)
        raise InvalidCodeError(f"letter {bad!r} is not one of R, L, U")


def reduce_word(letters: str) -> str:
    """Cancel adjacent RL / LR pairs until none remain.

    The normal form is unique: U's are never touched, and cancellations in any
    order reach the same word.
    """
    _check_alphabet(letters)
    return "".join(_reduce(letters))


def _decode_letters(seq, shift: int = 0) -> Composition:
    """Row lengths of a letter sequence: x-position at each U, top row last in seq.

    With ``shift`` 1 the k-th U from the left reads k columns further right
    (the staircase of the shifted style).  Returns the rows bottom-row-first
    reversed into the usual top-down order; entries may be below the minimum
    for invalid words (callers validate).
    """
    x = shift
    rows: list[int] = []
    for ch in seq:
        if ch == "R":
            x += 1
        elif ch == "L":
            x -= 1
        else:
            rows.append(x)
            x += shift
    rows.reverse()
    return tuple(rows)


class CodeWord(_Value):
    """A reduced finite code word whose rows are all at least ``shift``.

    ``shift`` is 0 here (plain words, rows >= 0); ShiftedCodeWord sets it to 1.
    """

    __slots__ = __match_args__ = ("letters",)
    shift = 0  # class constant, not a field

    def __init__(self, letters: str) -> None:
        w = letters
        if reduce_word(w) != w:
            raise InvalidCodeError(f"word {w!r} is not reduced")
        if w:
            if w[0] == "L":
                raise InvalidCodeError(f"word {w!r} starts with L")
            if w[-1] != "U":
                raise InvalidCodeError(f"word {w!r} does not end with U")
        if any(p < self.shift for p in _decode_letters(w, self.shift)):
            below = "has a row below 1" if self.shift else "has a negative row"
            raise InvalidCodeError(f"word {w!r} {below}")
        object.__setattr__(self, "letters", w)

    @property
    def rows(self) -> int:
        """Number of rows encoded (one per U)."""
        return self.letters.count("U")

    def __str__(self) -> str:
        return self.letters


class ShiftedCodeWord(CodeWord):
    """A reduced finite shifted-code word whose rows are all positive."""

    __slots__ = ()
    shift = 1


def _built(cls, letters: str):
    """Wrap letters this package built itself, skipping ``cls``'s validation.

    Only for words valid by construction; verify re-validates every encoder's
    output through the public constructor.
    """
    word = object.__new__(cls)
    object.__setattr__(word, "letters", letters)
    return word


def _as_word(cls, word):
    """``word`` itself when its type is exactly ``cls``.

    Any other word (of another style) or string is taken as its letters and
    validated as a ``cls`` word, so no word is read at another style's offset.
    """
    if type(word) is cls:
        return word
    return cls(word.letters if isinstance(word, CodeWord) else word)


def _encode(cls, parts: Composition):
    """The ``cls`` word of an index with rows >= ``cls.shift``.

    Built bottom-up: R**(m_l - shift) U for the bottom row, then for each
    higher row the net move m_i - m_{i+1} - shift (R's, or L's when negative)
    followed by its U.  The result is reduced by construction and empty
    exactly for the empty index.
    """
    s = cls.shift
    parts = validate_composition(parts, minimum=s)
    if not parts:
        return _built(cls, "")
    chunks = ["R" * (parts[-1] - s) + "U"]
    for i in range(len(parts) - 2, -1, -1):
        step = parts[i] - parts[i + 1] - s
        chunks.append(("R" * step if step >= 0 else "L" * -step) + "U")
    return _built(cls, "".join(chunks))


def _decode(cls, word) -> Composition:
    """Index encoded by a ``cls`` word (other words and strings are validated)."""
    return _decode_letters(_as_word(cls, word).letters, cls.shift)


def encode_code(parts: Composition) -> CodeWord:
    """Code word of an index with nonnegative rows."""
    return _encode(CodeWord, parts)


def decode_code(word: CodeWord | str) -> Composition:
    """Index encoded by a code word (validates anything but a CodeWord)."""
    return _decode(CodeWord, word)


def _splice_u(word: str, idx: int, shift: int = 0, insert: bool = False) -> Composition:
    """Rows of ``word`` + R-tail (style ``shift``) with a U at letter idx, in
    place of the R there or, with ``insert``, before it.  Past the word this
    is its rows under a new top row, read off without building the tail."""
    if idx >= len(word):
        end = shift + word.count("R") - word.count("L") + shift * word.count("U")
        return (end + idx - len(word),) + _decode_letters(word, shift)
    return _decode_letters(word[:idx] + "U" + word[idx if insert else idx + 1 :], shift)


def _replace_ith_r(word: str, i: int, shift: int = 0) -> Composition:
    """Rows of ``word`` (of style ``shift``) with its i-th R turned into a U.

    R's are counted from the left, into the R-tail past the stored word.
    """
    idx = -1
    for count in range(i):
        idx = word.find("R", idx + 1)
        if idx < 0:
            return _splice_u(word, len(word) + i - count - 1, shift)
    return _splice_u(word, idx, shift)


def _reduce_and_trim(seq) -> list[str]:
    """Reduce a letter list and drop trailing L's (they cancel into the R-tail)."""
    out = _reduce(seq)
    while out and out[-1] == "L":
        out.pop()
    return out


def _leftmost_run(word: list[str]) -> tuple[int, int]:
    """Start index and length of the leftmost maximal L-run (word holds an L).

    A U must close the run; anything else is a broken rewrite.
    """
    p = word.index("L")
    k = p
    while k < len(word) and word[k] == "L":
        k += 1
    if k == len(word) or word[k] != "U":
        raise InternalInvariantError(f"L-run not followed by U in {''.join(word)!r}")
    return p, k - p


def _exchange_step(word: list[str], shift: int):
    """One straightening exchange at the leftmost L-run (length k, start p).

    The letter k positions left of the run is examined: a U there annihilates
    the whole product, and so does a run reaching past a plain word, into its
    U-prefix; past a shifted word (``shift`` 1) the run is an invalid word.
    An R there becomes a U, the run shrinks by one L, and the sign picks up
    one flip per U strictly between that letter and the run.
    """
    p, k = _leftmost_run(word)
    t = p - k
    if t < 0:
        if not shift:
            return None
        raise InvalidCodeError(
            f"run of {k} L's reaches past the start of {''.join(word)!r}"
        )
    if word[t] == "U":
        return None
    if word[t] != "R":
        raise InternalInvariantError(f"unexpected letter {word[t]!r} left of the run")
    exponent = word[t + 1 : p].count("U")
    new = word[:t] + ["U"] + word[t + 1 : p] + ["L"] * (k - 1) + word[p + k + 1 :]
    return exponent, _reduce_and_trim(new)


def _q_exchange_step(word: list[str], shift: int):
    """One strict-index (Q) exchange at the leftmost L-run of a plain word.

    Walks left from the run to the k-th R; the stored letter before that R
    annihilates the product when it is a U.  Otherwise a new U is inserted
    before that R (at the word's left edge this creates a zero row), the run
    keeps all k L's, and the U that closed the run is dropped.  The sign flips
    once per letter skipped between the k-th R and the run beyond those k R's.
    """
    p, k = _leftmost_run(word)
    q = p - 1
    seen = 0
    while q >= 0:
        if word[q] == "R":
            seen += 1
            if seen == k:
                break
        q -= 1
    if seen < k:
        raise InternalInvariantError(
            f"fewer than {k} R's left of the run in {''.join(word)!r}"
        )
    exponent = (p - q) - k
    if q > 0 and word[q - 1] == "U":
        return None
    new = word[:q] + ["U"] + word[q : p + k] + word[p + k + 1 :]
    return exponent, _reduce_and_trim(new)


def _check_straight(start: Composition, rows: Composition, shift: int, word) -> None:
    """Check a straightened word once: the row count and total of ``start``
    and, on the unshifted rows, weakly decreasing with the bottom row >= 0.

    rows[i] - rows[i + 1] >= shift is the unshifted rows weakly decreasing; with
    the staircase added, a shifted result is then strictly decreasing.
    """
    if (
        len(rows) != len(start)
        or sum(rows) != sum(start)
        or any(rows[i] - rows[i + 1] < shift for i in range(len(rows) - 1))
        or (rows and rows[-1] < shift)
    ):
        raise InternalInvariantError(
            f"straightening broke row count, total or order: {''.join(word)!r}"
        )


def _reading_step(word: list[str], shift: int):
    """One reading pass from the leftmost L of a plain, maybe unreduced word.

    Letters are deleted as they are read (R's past the word), while a cursor
    tracks the net position until it is back at the reading position.  A U
    read with the cursor on a U (or in the U-prefix) annihilates; on an R it
    rewrites that R to a U, with one sign flip per U between them.
    """
    w = list(word)  # a new list: no step changes the word it is given
    r = c = w.index("L")
    exponent = 0
    while True:
        ch = w.pop(r) if r < len(w) else "R"
        if ch == "U":
            if c < 0 or w[c] == "U":
                return None
            if w[c] != "R":
                raise InternalInvariantError(
                    f"cursor on {w[c]!r} while reading a U in {''.join(w)!r}"
                )
            exponent += w[c + 1 : r].count("U")
            w[c] = "U"
        c += -1 if ch == "L" else 1
        if c == r:
            return exponent, w


# rule name -> (word type, step).  A step(letters, the type's shift) returns
# None on annihilation, else (sign exponent, new word).
RULES = {
    "plain": (CodeWord, _exchange_step),
    "shifted": (ShiftedCodeWord, _exchange_step),
    "q": (CodeWord, _q_exchange_step),
    "reading": (CodeWord, _reading_step),
}


def _exchanges(letters: list[str], rule: str):
    """The one exchange loop: apply ``rule``'s step until no L remains,
    yielding each step's result (None, once, on annihilation)."""
    cls, step = RULES[rule]
    while "L" in letters:
        out = step(letters, cls.shift)
        yield out
        if out is None:
            return
        letters = out[1]


def _sum_exchanges(letters: list[str], rule: str):
    """Sum the exchange loop over letters: None on annihilation, else (total
    sign exponent, final rows), the final word checked once."""
    shift = RULES[rule][0].shift
    start = _decode_letters(letters, shift)
    if "L" not in letters:
        return 0, start  # already straight
    total = 0
    for out in _exchanges(letters, rule):
        if out is None:
            return None
        total += out[0]
        letters = out[1]
    rows = _decode_letters(letters, shift)
    _check_straight(start, rows, shift, letters)
    return total, rows


def straighten_code_trace(word, rule: str = "plain"):
    """Straighten a word of ``rule``'s type (a name in RULES) by the exchange
    loop: None on annihilation, else (total sign exponent, final rows)."""
    return _sum_exchanges(list(_as_word(RULES[rule][0], word).letters), rule)


def _signed(out) -> SignedIndexResult:
    """The result of a ``*_trace`` value: ZERO for None, else the signed rows."""
    return ZERO if out is None else signed_result(*out)


def straighten_code(word: CodeWord | str) -> SignedIndexResult:
    """Straighten a code word into the zero result or a signed partition."""
    return _signed(straighten_code_trace(word))


def straighten_B(parts: Composition) -> SignedIndexResult:
    """Straighten an index with nonnegative rows (encode, then straighten)."""
    return straighten_code(encode_code(parts))


def reading_straighten_trace(word: CodeWord | str):
    """straighten_code_trace by the reading rule, which also takes words that
    are not reduced (only the alphabet is checked)."""
    letters = list(word.letters if isinstance(word, CodeWord) else word)
    _check_alphabet(letters)
    return _sum_exchanges(letters, "reading")


def reading_straighten(word: CodeWord | str) -> SignedIndexResult:
    """Reading-algorithm straightening: same contract as straighten_code."""
    return _signed(reading_straighten_trace(word))
