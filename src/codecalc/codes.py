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


def reduce_word(letters: str) -> str:
    """Cancel adjacent RL / LR pairs until none remain.

    The normal form is unique: U's are never touched, and cancellations in any
    order reach the same word.
    """
    out: list[str] = []
    for ch in letters:
        if ch not in ALPHABET:
            raise InvalidCodeError(f"letter {ch!r} is not one of R, L, U")
        if out and ch != "U" and out[-1] != "U" and out[-1] != ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _decode_letters(seq) -> Composition:
    """Row lengths of a letter sequence: x-position at each U, top row last in seq.

    Returns the rows bottom-row-first reversed into the usual top-down order;
    entries may be negative for invalid words (callers validate).
    """
    x = 0
    rows: list[int] = []
    for ch in seq:
        if ch == "R":
            x += 1
        elif ch == "L":
            x -= 1
        else:
            rows.append(x)
    rows.reverse()
    return tuple(rows)


@dataclass(frozen=True)
class CodeWord:
    """A reduced finite code word whose rows are all nonnegative."""

    letters: str

    def __post_init__(self) -> None:
        w = self.letters
        if reduce_word(w) != w:
            raise InvalidCodeError(f"word {w!r} is not reduced")
        if w:
            if w[0] == "L":
                raise InvalidCodeError(f"word {w!r} starts with L")
            if w[-1] != "U":
                raise InvalidCodeError(f"word {w!r} does not end with U")
        if any(p < 0 for p in _decode_letters(w)):
            raise InvalidCodeError(f"word {w!r} has a negative row")

    @property
    def rows(self) -> int:
        """Number of rows encoded (one per U)."""
        return self.letters.count("U")

    def __str__(self) -> str:
        return self.letters


def _built(cls, letters: str):
    """Wrap letters this package built itself, skipping ``cls``'s validation.

    Only for words valid by construction; verify re-validates every encoder's
    output through the public constructor.
    """
    word = object.__new__(cls)
    object.__setattr__(word, "letters", letters)
    return word


def encode_code(parts: Composition) -> CodeWord:
    """Code word of an index with nonnegative rows.

    Built bottom-up: R**m_l U for the bottom row, then for each higher row the
    net horizontal move (R's or L's) followed by its U.  The result is reduced
    by construction and empty exactly for the empty index.
    """
    parts = validate_composition(parts)
    if not parts:
        return _built(CodeWord, "")
    chunks = ["R" * parts[-1] + "U"]
    for i in range(len(parts) - 2, -1, -1):
        step = parts[i] - parts[i + 1]
        chunks.append(("R" * step if step >= 0 else "L" * -step) + "U")
    return _built(CodeWord, "".join(chunks))


def decode_code(word: CodeWord | str) -> Composition:
    """Index encoded by a code word (validates strings by wrapping in CodeWord)."""
    if not isinstance(word, CodeWord):
        word = CodeWord(word)
    return _decode_letters(word.letters)


def _replace_ith_r(word: str, i: int) -> str:
    """Turn the i-th R (from the left, counting into the R-tail) into a U."""
    idx = -1
    for count in range(i):
        idx = word.find("R", idx + 1)
        if idx < 0:
            return word + "R" * (i - count - 1) + "U"
    return word[:idx] + "U" + word[idx + 1 :]


def _reduce_and_trim(seq) -> list[str]:
    """Reduce a letter list and drop trailing L's (they cancel into the R-tail)."""
    out: list[str] = []
    for ch in seq:
        if out and ch != "U" and out[-1] != "U" and out[-1] != ch:
            out.pop()
        else:
            out.append(ch)
    while out and out[-1] == "L":
        out.pop()
    return out


def _leftmost_run(word: list[str]) -> tuple[int, int] | None:
    """Start index and length of the leftmost maximal L-run, or None."""
    if "L" not in word:
        return None
    p = word.index("L")
    k = p
    while k < len(word) and word[k] == "L":
        k += 1
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
    if p + k >= len(word) or word[p + k] != "U":
        raise InternalInvariantError(f"L-run not followed by U in {''.join(word)!r}")
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
    if p + k >= len(word) or word[p + k] != "U":
        raise InternalInvariantError(f"L-run not followed by U in {''.join(word)!r}")
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


def _straighten_letters(letters, step, decode, minimum: int):
    """Drive ``step`` until no L remains, then check row count, total and minimum.

    The check runs once, on the final word; verify replays the rules one step
    at a time.  Returns None on annihilation, else (total sign exponent, final
    rows).
    """
    word = list(letters)
    if "L" not in word:
        return 0, decode(word)  # already straight: no exchange to check
    start = decode(word)
    total = 0
    while "L" in word:
        out = step(word)
        if out is None:
            return None
        inc, word = out
        total += inc
    rows = decode(word)
    if len(rows) != len(start) or sum(rows) != sum(start):
        raise InternalInvariantError(
            f"exchanges changed row count or total: {''.join(word)!r}"
        )
    if rows and min(rows) < minimum:
        raise InternalInvariantError(
            f"exchanges produced a row below {minimum}: {''.join(word)!r}"
        )
    return total, rows


def straighten_code_trace(word: CodeWord | str):
    """Straighten a code word; None when zero, else (sign exponent, partition)."""
    if not isinstance(word, CodeWord):
        word = CodeWord(word)
    out = _straighten_letters(
        word.letters,
        lambda w: _exchange_step(w, virtual_prefix=True),
        _decode_letters,
        0,
    )
    if out is None:
        return None
    total, rows = out
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise InternalInvariantError(f"straightened rows not sorted: {rows!r}")
    return total, rows


def straighten_code(word: CodeWord | str) -> SignedIndexResult:
    """Straighten a code word into the zero result or a signed partition."""
    out = straighten_code_trace(word)
    if out is None:
        return ZERO
    return signed_result(*out)


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
    if isinstance(word, CodeWord):
        letters = word.letters
    else:
        letters = word
        for ch in letters:
            if ch not in ALPHABET:
                raise InvalidCodeError(f"letter {ch!r} is not one of R, L, U")
    w = list(letters)
    nrows = w.count("U")
    total_size = sum(_decode_letters(w))
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
    if len(rows) != nrows or sum(rows) != total_size:
        raise InternalInvariantError(f"reading changed row count or total: {rows!r}")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)) or any(
        r < 0 for r in rows
    ):
        raise InternalInvariantError(f"reading produced unsorted rows: {rows!r}")
    return total, rows


def reading_straighten(word: CodeWord | str) -> SignedIndexResult:
    """Reading-algorithm straightening: same contract as straighten_code."""
    out = reading_straighten_trace(word)
    if out is None:
        return ZERO
    return signed_result(*out)
