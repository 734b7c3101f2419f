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
exchanging the leftmost L-run with a letter to its left.

A shifted word (Schur-Q side, strict indexes with positive rows) is the same
kind of word read with its rows offset by a staircase: the k-th U from the
left sits k columns further right, so its row is the plain row plus k.  The
class constant ``shift`` (0 plain, 1 shifted) is the only difference between
the two styles; it fixes the origin offset and the minimum row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Composition,
    InternalInvariantError,
    InvalidCodeError,
    SignedIndexResult,
    ZERO,
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


@dataclass(frozen=True)
class CodeWord:
    """A reduced finite code word whose rows are all at least ``shift``.

    ``shift`` is 0 here (plain words, rows >= 0); ShiftedCodeWord sets it to 1.
    """

    letters: str
    shift = 0  # class constant, not a field

    def __post_init__(self) -> None:
        w = self.letters
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

    @property
    def rows(self) -> int:
        """Number of rows encoded (one per U)."""
        return self.letters.count("U")

    def __str__(self) -> str:
        return self.letters


class ShiftedCodeWord(CodeWord):
    """A reduced finite shifted-code word whose rows are all positive."""

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


def _rows_with_top(word: str, k: int, shift: int = 0) -> Composition:
    """Rows of ``word`` + R**k + U without building it: the word's rows under
    one new top row, k columns right of the position the word ends at."""
    end = shift + word.count("R") - word.count("L") + shift * word.count("U")
    return (end + k,) + _decode_letters(word, shift)


def _replace_ith_r(word: str, i: int, shift: int = 0) -> Composition:
    """Rows of ``word`` (of style ``shift``) with its i-th R turned into a U.

    R's are counted from the left, into the R-tail past the stored word; a
    tail R costs no more than a stored one (``_rows_with_top``).
    """
    idx = -1
    for count in range(i):
        idx = word.find("R", idx + 1)
        if idx < 0:
            return _rows_with_top(word, i - count - 1, shift)
    return _decode_letters(word[:idx] + "U" + word[idx + 1 :], shift)


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


def _exchange_step(word: list[str], *, virtual_prefix: bool):
    """One straightening exchange at the leftmost L-run (length k, start p).

    The letter k positions left of the run is examined: a U there (or, with
    ``virtual_prefix``, falling off the stored word into the U-prefix)
    annihilates the whole product.  An R there becomes a U, the run shrinks by
    one L, and the sign picks up one flip per U strictly between that letter
    and the run.  Returns None on annihilation, else (sign_exponent, new word).
    """
    p, k = _leftmost_run(word)
    t = p - k
    if t < 0:
        if virtual_prefix:
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


def _plain_step(word: list[str]):
    """The plain rule: a run reaching past the word annihilates in the U-prefix."""
    return _exchange_step(word, virtual_prefix=True)


def _shifted_step(word: list[str]):
    """The shifted rule: the run may never reach past the word's left edge."""
    return _exchange_step(word, virtual_prefix=False)


def _q_exchange_step(word: list[str]):
    """One strict-index straightening exchange at the leftmost L-run.

    Walks left from the run to the k-th R; the stored letter before that R
    annihilates the product when it is a U.  Otherwise a new U is inserted
    before that R (at the word's left edge this creates a zero row), the run
    keeps all k L's, and the U that closed the run is dropped.  The sign flips
    once per letter skipped between the k-th R and the run beyond those k R's.
    Returns None on annihilation, else (sign_exponent, new word).
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


def straighten_code_trace(word, step=_plain_step, shift: int = 0):
    """Drive ``step`` on a word of style ``shift`` until no L remains.

    ``step`` is _plain_step, _shifted_step (with shift 1) or _q_exchange_step.
    Returns None on annihilation, else (total sign exponent, final rows).  The
    final word is checked once (``_check_straight``); verify replays the rules
    one step at a time.
    """
    letters = list(_as_word(ShiftedCodeWord if shift else CodeWord, word).letters)
    start = _decode_letters(letters, shift)
    if "L" not in letters:
        return 0, start  # already straight
    total = 0
    while "L" in letters:
        out = step(letters)
        if out is None:
            return None
        inc, letters = out
        total += inc
    rows = _decode_letters(letters, shift)
    _check_straight(start, rows, shift, letters)
    return total, rows


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
    """Single-pass-per-run reading variant of straighten_code_trace.

    Letters are consumed one at a time starting at the leftmost L, deleting
    each as it is read, while a second cursor tracks the net horizontal
    position.  Reading past the stored word supplies R's; a U read while the
    cursor sits on a U (stored or in the virtual prefix) annihilates; a U read
    while the cursor sits on an R rewrites that R to a U.  Tolerates
    non-reduced words.
    """
    w = list(word.letters if isinstance(word, CodeWord) else word)
    _check_alphabet(w)
    start = _decode_letters(w)
    total = 0
    while "L" in w:
        r = w.index("L")
        c = r
        while True:
            ch = w.pop(r) if r < len(w) else "R"
            if ch == "L":
                c -= 1
            elif ch == "R":
                c += 1
            else:
                if c < 0 or w[c] == "U":
                    return None
                if w[c] != "R":
                    raise InternalInvariantError(
                        f"cursor on {w[c]!r} while reading a U in {''.join(w)!r}"
                    )
                total += w[c + 1 : r].count("U")
                w[c] = "U"
                c += 1
            if c == r:
                break
    rows = _decode_letters(w)
    _check_straight(start, rows, 0, w)
    return total, rows


def reading_straighten(word: CodeWord | str) -> SignedIndexResult:
    """Reading-algorithm straightening: same contract as straighten_code."""
    return _signed(reading_straighten_trace(word))
