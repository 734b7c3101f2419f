"""Lattice-word codes for indexes, and the code-level straightening rules.

An index (weak composition) is encoded as a finite word over the alphabet
{R, L, U} describing the right edge of its row diagram, read bottom-up: the
stored word is conceptually preceded by infinitely many U's and followed by
infinitely many R's.  R and L are mutually inverse horizontal steps and cancel
as neighbours; U never cancels.  The finite word of an index with rows
(m_1, ..., m_l) carries exactly m_1 R's (net) and exactly l U's, one per row,
and ends with a U whenever it is nonempty.  Leading U's encode zero rows, so
distinct indexes always get distinct words.

A reduced word's U-segments are each all R's or all L's, so a word is its
runs: the net move before each U, bottom-up (R's positive, L's negative).
Its letters are a view, rendered on each read; the word routes take a
word's runs (``_word_runs``), and ``straighten_B`` and the routes of
``bernstein`` and ``qvertex`` read the runs of an index they validated
(``_index_runs``) and build no word at all.

Straightening rewrites a word containing L's (rows out of order) into either
the zero result or a signed word without L's (a partition), by repeatedly
exchanging the leftmost L-run with a letter to its left.  One loop drives
every rule in ``RULES``: the rule's find gives the index j of the leftmost
L-run, resuming where the last step was, since a step leaves no L left of it;
the rule's step rewrites the word at j into None (annihilation) or its sign
exponent and new word.  The straighteners sum it, and verify checks the word
of each step.  The plain, shifted and Q steps rewrite runs, at O(rows) a step
whatever the parts; the reading step reads letters, maybe unreduced.  A word
enters the loop through ``straighten_code_trace``, an index as its runs.

A shifted word (Schur-Q side, strict indexes with positive rows) is the same
kind of word read with its rows offset by a staircase: the k-th U from the
left sits k columns further right, so its row is the plain row plus k.  The
class constant ``shift`` (0 plain, 1 shifted) is the only difference between
the two styles; it fixes the origin offset and the minimum row.
"""

from itertools import accumulate, repeat
from operator import ge, gt, sub

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

# a failing word's error quotes its letters up to this many, else names its
# runs; an argv string holds at most 131,072 bytes, so a CLI word is quoted
QUOTED_LETTERS = 2**20


def _runs(letters: str) -> tuple[int, ...]:
    """Runs of a reduced word's letters: each U-closed stretch's length,
    negative for L's (letters past the last U are no row)."""
    return tuple([-len(seg) if "L" in seg else len(seg) for seg in letters.split("U")[:-1]])


def _render(runs) -> str:
    """Letters of the reduced word with these runs: each move as R's or L's, then its U."""
    return "U".join(["R" * d or "L" * -d for d in runs] + [""])


def _letters(letters) -> str:
    """``letters`` as a str checked against the alphabet: a str as it is, any
    other iterable read into a list once (an iterator is read only once)."""
    if type(letters) is not str:
        letters = list(letters)
    if not ALPHABET.issuperset(letters):
        bad = next(ch for ch in letters if ch not in ALPHABET)
        raise InvalidCodeError(f"letter {bad!r} is not one of R, L, U")
    return letters if type(letters) is str else "".join(letters)


# letter by letter on purpose: a reader on str.split("U") and str.count was
# 1.5-2.6x slower on words of 20-24 letters, reduced or not (Python 3.11 on a
# 2-CPU host).  verify's round trip reads the encoders' letters through this
# reader, apart from the ``_runs`` the encoders build, so neither reader is
# folded into the other.
def _nets(letters) -> tuple[list[int], int]:
    """Net moves (R's minus L's) of letters, maybe unreduced: one per U-closed
    stretch, bottom-up, and the stretch after the last U."""
    nets, net = [], 0
    for ch in letters:
        if ch == "U":
            nets.append(net)
            net = 0
        else:
            net += 1 if ch == "R" else -1
    return nets, net


def reduce_word(letters: str) -> str:
    """Cancel adjacent RL / LR pairs until none remain.

    The normal form is unique: U's are never touched, and cancellations in any
    order reach the same word, each stretch between U's its net R's or L's.
    """
    nets, net = _nets(_letters(letters))
    return _render(nets) + ("R" * net or "L" * -net)


def _rows(word, shift: int = 0) -> Composition:
    """Rows of a word, as runs or as letters, top row first: the x-position at
    each U, where with ``shift`` 1 the k-th U from the left reads k columns
    further right (the staircase of the shifted style).  Entries may be below
    the minimum for invalid words (callers validate)."""
    if type(word) is str:
        word = _nets(word)[0]
    if shift:
        word = [d + shift for d in word]
    return tuple(accumulate(word))[::-1]


class CodeWord(_Value):
    """A reduced finite code word whose rows are all at least ``shift``.

    ``runs``, the net move before each U, bottom-up, is the whole word;
    ``letters`` renders them on each read.  ``shift`` is 0 here (plain words,
    rows >= 0); ShiftedCodeWord sets it to 1.
    """

    __slots__ = ("runs",)
    __match_args__ = ("letters",)
    shift = 0  # class constant, not a field

    def __new__(cls, letters: str):
        if type(letters) is not str:
            raise InvalidCodeError(f"a code word is a str of letters, not {type(letters).__name__}")
        w = _letters(letters)
        if "RL" in w or "LR" in w:  # no R next to an L
            raise InvalidCodeError(f"word {w!r} is not reduced")
        if w:
            if w[0] == "L":
                raise InvalidCodeError(f"word {w!r} starts with L")
            if w[-1] != "U":
                raise InvalidCodeError(f"word {w!r} does not end with U")
        return cls._make(_row_checked(cls, _runs(w)))

    @property
    def letters(self) -> str:
        """The word's letters, rendered from its runs on each read."""
        return _render(self.runs)

    @property
    def rows(self) -> int:
        """Number of rows encoded (one per U)."""
        return len(self.runs)

    def __str__(self) -> str:
        return self.letters


class ShiftedCodeWord(CodeWord):
    """A reduced finite shifted-code word whose rows are all positive."""

    __slots__ = ()
    shift = 1


def _row_checked(cls, runs) -> tuple[int, ...]:
    """``runs`` when every row they give at ``cls``'s offset is at least
    ``cls.shift``; the letters are rendered only to word the error."""
    if any(p < cls.shift for p in _rows(runs, cls.shift)):
        below = "has a row below 1" if cls.shift else "has a negative row"
        n = sum(map(abs, runs)) + len(runs)  # letters
        word = repr(_render(runs)) if n <= QUOTED_LETTERS else f"of {n} letters, runs {runs},"
        raise InvalidCodeError(f"word {word} {below}")
    return runs


def _word_runs(cls, word) -> tuple[int, ...]:
    """Runs of ``word`` read as a ``cls`` word: a word of ``cls``'s style (its
    ``shift``), a PreshiftedWord too, as they are; a word of another style
    checked at ``cls``'s offset, as its letters would be; anything else
    validated as ``cls(word)``."""
    if not isinstance(word, CodeWord):
        return cls(word).runs
    return word.runs if word.shift == cls.shift else _row_checked(cls, word.runs)


def _index_runs(parts: Composition, shift: int = 0) -> tuple[int, ...]:
    """Runs of the word of an index validated as exact ints >= ``shift``:
    bottom-up, the bottom row moves m_l - shift and each higher row
    m_i - m_{i+1} - shift."""
    up = parts[::-1]
    runs = map(sub, up, (0,) + up)
    return tuple(map(sub, runs, repeat(shift)) if shift else runs)


def _encode(cls, parts: Composition):
    """The ``cls`` word of an index with rows >= ``cls.shift``.  It skips
    ``cls``'s validation: its runs are valid by construction, and verify
    re-validates every encoder's letters through the public constructor."""
    s = cls.shift
    return cls._make(_index_runs(validate_composition(parts, minimum=s), s))


def encode_code(parts: Composition) -> CodeWord:
    """Code word of an index with nonnegative rows."""
    return _encode(CodeWord, parts)


def decode_code(word: CodeWord | str) -> Composition:
    """Index encoded by a code word (validates anything but a plain CodeWord)."""
    return _rows(_word_runs(CodeWord, word), CodeWord.shift)


def _series(rows, shift: int, i_min: int, i_max: int, t_max: int, term) -> list:
    """Terms i_min..i_max of a series over a validated index, up to the first
    whose t-exponent passes t_max.  A term is ``term(i, t-exponent, sign
    exponent, index)`` at ``shift`` 0 and ``term(t-exponent, sign exponent, i,
    sign exponent, index)`` at ``shift`` 1: the field orders of SeriesTerm
    (after its family) and QSeriesTerm, so each side passes its ``_make``.

    Term i turns the i-th R of the index's word, in run b of its runs
    (``_index_runs``), into a U: its index is the sup-index (plain) or the
    bracket-index (shifted), its sign exponent j = l - b.  At ``shift`` 0 the
    j rows above run b drop by one and a row i - 1 goes in below them; at
    ``shift`` 1 they stay and a row i + b goes in.  The t-exponent, |index| -
    |rows|, is i - 1 - j + shift * (l + 1).  A cursor walks the runs once as i
    grows, so each term is one C-level copy of the rows.
    """
    runs = _index_runs(rows, shift)
    above = rows if shift else tuple(r - 1 for r in rows)  # rows above run b, in a term
    l = len(rows)
    t_base = shift * (l + 1) - 1
    b = below = 0  # run b holds the i-th R; below counts the R's of runs[:b]
    terms = []
    for i in range(i_min, i_max + 1):
        while b < l and below + runs[b] < i:
            below += runs[b]
            b += 1
        j = l - b
        t_exp = i - j + t_base
        if t_exp > t_max:
            break
        new = i - 1 + shift * (b + 1)
        index = above[:j] + (new,) + rows[j:]
        # the new row sits between its neighbours: weakly plain, strictly shifted
        if (j and above[j - 1] < new + shift) or (j < l and rows[j] + shift > new):
            raise InternalInvariantError(f"series term off at i={i} for {rows!r}: {index!r}")
        terms.append(term(t_exp, j, i, j, index) if shift else term(i, t_exp, j, index))
    return terms


def _exchanged(runs, i: int, left: int, right: int, j: int, rest: int):
    """Runs with run i cut by a new U into ``left`` and ``right``, and run j,
    left with ``rest``, merged past its dropped U into run j + 1 (or the R-tail)."""
    after = runs[j + 1 :]
    merged = (after[0] + rest,) + after[1:] if after else ()
    return runs[:i] + (left, right) + runs[i + 1 : j] + merged


def _l_run(runs, start: int) -> int:
    """Index of the leftmost L-run (negative run) at or after ``start``, or -1."""
    for j in range(start, len(runs)):
        if runs[j] < 0:
            return j
    return -1


def _exchange_step(runs, j: int):
    """One straightening exchange at the leftmost L-run: run j, of k L's.

    The letter k positions left of the run is examined, walking left over
    each run i's d R's and its closing U.  A U there annihilates the whole
    product, and so does a walk past the word's start, into its U-prefix (the
    action ``bernstein.bn_action`` at a degree below -len(lam)); no valid
    shifted word walks that far.  An R there becomes a U, splitting run i,
    and the sign picks up one flip per U strictly between that letter and the
    run: j - i.  The run keeps k - 1 L's.
    """
    k = m = -runs[j]
    for i in range(j - 1, -1, -1):
        d = runs[i]
        if m <= d + 1:
            return None if m == 1 else (j - i, _exchanged(runs, i, d - m + 1, m - 2, j, 1 - k))
        m -= d + 1
    return None


def _q_exchange_step(runs, j: int):
    """One strict-index (Q) exchange at the leftmost L-run (run j, of k L's)
    of a plain word.

    Walks left from the run to the k-th R, in run i; the stored letter before
    that R annihilates the product when it is a U.  Otherwise a new U is
    inserted before that R (at the word's left edge this creates a zero row),
    the run keeps all k L's, and the U that closed the run is dropped.  The
    sign flips once per U passed: j - i.
    """
    k = m = -runs[j]
    for i in range(j - 1, -1, -1):
        d = runs[i]
        if m <= d:
            return None if m == d and i else (j - i, _exchanged(runs, i, d - m, m, j, -k))
        m -= d
    raise InternalInvariantError(f"fewer than {k} R's left of the run in {_render(runs)!r}")


def _check_straight(start: Composition, rows: Composition, shift: int, word) -> None:
    """Check a straightened word once: the row count and total of ``start``
    and, on the unshifted rows, weakly decreasing with the bottom row >= 0.

    rows[i] - rows[i + 1] >= shift is the unshifted rows weakly decreasing; with
    the staircase added, a shifted result is then strictly decreasing.  For
    int rows and shift 0 or 1 that is rows[i] >= rows[i + 1], or >, checked
    pairwise at C level.
    """
    if (
        len(rows) != len(start)
        or sum(rows) != sum(start)
        or not all(map(gt if shift else ge, rows, rows[1:]))
        or (rows and rows[-1] < shift)
    ):
        raise InternalInvariantError(f"straightening broke row count, total or order: {word!r}")


def _reading_step(word: str, r: int):
    """One reading pass from the leftmost L of a plain, maybe unreduced word,
    at letter r.

    The letters from that L on are read and dropped (R's past the word),
    while a cursor tracks the net position until it is back at the reading
    position.  A U read with the cursor on a U (or in the U-prefix)
    annihilates; on an R it rewrites that R to a U, with one sign flip per U
    between them.  The cursor stays in the prefix left of the first L, which
    holds only R's and U's, so only that prefix is rewritten.
    """
    c = r
    prefix = word[:r]
    exponent = 0
    for i in range(r, len(word)):
        ch = word[i]
        if ch == "U":
            if c < 0 or prefix[c] == "U":
                return None
            exponent += prefix.count("U", c + 1)
            prefix = prefix[:c] + "U" + prefix[c + 1 :]
        c += -1 if ch == "L" else 1
        if c == r:
            return exponent, prefix + word[i + 1 :]
    return exponent, prefix  # the R-tail brings the cursor back


# rule name -> (word type, find, step).  find(word, start) is the index of the
# leftmost L-run (a run) or L (a letter) at or after start, or -1; step(word,
# j) rewrites the word at that index j and returns None on annihilation, else
# (sign exponent, new word).  The word is its runs (a tuple), except for the
# reading rule, which reads letters (a str) that may be unreduced.
RULES = {
    "plain": (CodeWord, _l_run, _exchange_step),
    "shifted": (ShiftedCodeWord, _l_run, _exchange_step),
    "q": (CodeWord, _l_run, _q_exchange_step),
    "reading": (CodeWord, lambda letters, start: letters.find("L", start), _reading_step),
}


def _sum_exchanges(word, rule: str, on_step=None):
    """The one exchange loop: apply ``rule``'s step until no L remains.

    Each search resumes at the last step's index: a step leaves no L left of
    it.  Returns None on annihilation, else (total sign exponent, final rows),
    the final word checked once.  ``on_step``, when given, sees each step's
    (sign exponent, new word); a true return stops the loop, which then
    returns None.
    """
    cls, find, step = RULES[rule]
    shift = cls.shift
    state, total, at = word, 0, 0
    while (at := find(state, at)) >= 0:
        out = step(state, at)
        if out is None or (on_step is not None and on_step(*out)):
            return None
        total += out[0]
        state = out[1]
    start = _rows(word, shift)
    if state is word:
        return 0, start  # already straight
    rows = _rows(state, shift)
    _check_straight(start, rows, shift, state)
    return total, rows


def straighten_code_trace(word, rule: str = "plain"):
    """Straighten a word by ``rule`` (a name in RULES) through the exchange
    loop: None on annihilation, else (total sign exponent, final rows).  The
    other rules take the runs of ``_word_runs``; the reading rule takes a
    CodeWord or any letters, unreduced too (only the alphabet is checked).
    The Q rule's rows come before straighten_Y_code annihilates equal rows:
    (2, 1, 2) gives (1, (2, 2, 1)) here, ZERO there."""
    if rule != "reading":
        return _sum_exchanges(_word_runs(RULES[rule][0], word), rule)
    return _sum_exchanges(_letters(word.letters if isinstance(word, CodeWord) else word), rule)


def _signed(out) -> SignedIndexResult:
    """The signed result of a straightening: ZERO for None, else the signed rows."""
    return ZERO if out is None else signed_result(*out)


def straighten_code(word: CodeWord | str) -> SignedIndexResult:
    """Straighten a code word into the zero result or a signed partition."""
    return _signed(straighten_code_trace(word))


def straighten_B(parts: Composition) -> SignedIndexResult:
    """Straighten an index with nonnegative rows by the exchanges on its runs."""
    return _signed(_sum_exchanges(_index_runs(validate_composition(parts)), "plain"))


def reading_straighten(word: CodeWord | str) -> SignedIndexResult:
    """Reading-algorithm straightening of a code word or letters, maybe unreduced."""
    return _signed(straighten_code_trace(word, "reading"))
