"""Young frames (integer partitions), dimension formulas and entropy helpers.

A Young frame with at most ``d`` rows and ``n`` boxes simultaneously labels an
irreducible representation of the symmetric group S_n (of dimension
:func:`dim_sym`) and a polynomial irreducible representation of U(d) (of
dimension :func:`dim_unitary`); both divide by one cached hook-length product,
taken in Frobenius's form from one factorial per row (:func:`_hook_product`).
Everything else in this package is built on these two dimension counts, the
skew standard-tableau counts of :func:`_skew_counts` (one pass down the
lattice YF(d, .) per outer frame, by position), the lattice levels of
:func:`_lattice_level` (each frame's position, covers, f and dim U, which the
pass down and the fast path's push read on one lattice per d) and the binary
entropy / relative entropy helpers defined at the bottom, which take a
distribution on {0, 1} as its probability of 0, a bare real number in [0, 1].
Each lattice level is built from the level below by adding one box, and reads
nothing else.  The lattice is the one lister of frames:
:func:`enumerate_frames` checks the size caps and returns a level's frames,
zero-padded, and the cycle types of S_n are the frames of the level YF(n, n).

All functions here are pure and the memoized ones are safe to call from
multiple threads (recomputation under the GIL is idempotent).
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable

# Hard enumeration caps.  Requests beyond them are refused, never truncated.
# The box cap depends on d; see enumerate_frames for the measured costs.
MAX_ROW_BUDGET = 4
MAX_BOXES = {1: 128, 2: 128, 3: 36, 4: 24}


def _integers(values, what: str, least: tuple[int, ...] = ()) -> tuple[int, ...]:
    """``values`` as Python ints, the one reader of every size; what it cannot read is refused with ``ValueError``.

    Ints, bools and numpy ints are read, floats, strings and fractions refused.  ``least[i]`` bounds value i
    from below, and ``what`` names the values in order, as in "d and n" or "l, k and d".
    """
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None
    if any(map(operator.lt, ints, least)):
        name, low, i = next((name, low, i) for name, low, i in zip(re.split(", | and ", what), least, ints) if i < low)
        raise ValueError(f"{name} must be >= {low}, got {name}={i}")
    return ints


@dataclass(frozen=True, eq=False)
class YoungFrame:
    """Weakly decreasing tuple of non-negative row lengths.

    Trailing zero rows are permitted (frames enumerated with a row budget
    ``d`` are stored zero-padded to ``d`` entries) and do not affect identity:
    two frames are equal iff they agree after stripping trailing zeros.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = _integers(self.rows, "row lengths")
        object.__setattr__(self, "rows", rows)
        if any(r < 0 for r in rows):
            raise ValueError(f"negative row length in {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"rows must be weakly decreasing, got {rows}")

    @cached_property
    def reduced(self) -> tuple[int, ...]:
        """Rows with trailing zeros stripped (the canonical identity), computed once."""
        m = len(self.rows)
        while m and self.rows[m - 1] == 0:
            m -= 1
        return self.rows[:m]

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        """Number of nonzero rows."""
        return len(self.reduced)

    def row(self, i: int) -> int:
        """Row length at 0-based index ``i``; zero beyond the stored rows."""
        return self.rows[i] if 0 <= i < len(self.rows) else 0

    def padded(self, d: int) -> tuple[int, ...]:
        """Rows zero-padded to ``d`` entries (an int), held to :func:`_check_fits`; a ``d`` past memory is refused."""
        _check_fits(d, self)
        red = self.reduced
        try:
            return red + (0,) * (d - len(red))
        except (OverflowError, MemoryError):
            raise ValueError(f"frame {format_frame(self)} cannot be padded to {d} rows") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YoungFrame):
            return NotImplemented
        return self.reduced == other.reduced

    def __hash__(self) -> int:
        return hash(self.reduced)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows) if self.rows else "0"

    def __repr__(self) -> str:
        return f"YoungFrame({self.rows!r})"


def _check_fits(d: int, *frames: YoungFrame) -> None:
    """The one rule holding frames to ``d`` rows (``d`` an int already read): a frame with more is refused."""
    for f in frames:
        if len(f.reduced) > d:
            raise ValueError(f"frame {format_frame(f)} has more than {d} rows")


def _check_source(lam: YoungFrame, ks: Iterable[int], d: int) -> tuple[list[int], int]:
    """Refuse a source block past ``d`` rows or a site count outside 0..|lam|; ``ks`` and d come back as ints."""
    d, *ks = _integers((d, *ks), "d and k", (1,))
    _check_fits(d, lam)
    for k in ks:
        if not 0 <= k <= lam.n:
            raise ValueError(f"k={k} outside 0..{lam.n}")
    return ks, d


def frame(*parts: int) -> YoungFrame:
    """Convenience constructor: ``frame(4, 2, 1)``."""
    return YoungFrame(tuple(parts))


def parse_frame(text: str) -> YoungFrame:
    """Parse the comma-separated frame syntax used across the repo, e.g. "4,2,1".

    Rejects non-integer tokens and non-weakly-decreasing input, reporting the
    1-based position of the offending token.
    """
    tokens = [t.strip() for t in text.split(",")]
    rows = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            val = int(tok)
        except ValueError:
            raise ValueError(f"frame {text!r}: token {pos} ({tok!r}) is not an integer") from None
        if val < 0:
            raise ValueError(f"frame {text!r}: token {pos} is negative")
        rows.append(val)
    for pos in range(1, len(rows)):
        if rows[pos] > rows[pos - 1]:
            raise ValueError(f"frame {text!r}: token {pos + 1} breaks weak decrease")
    return YoungFrame(tuple(rows))


def exact_rational(x: Fraction | int | str) -> Fraction:
    """``x`` as an exact ``Fraction``: a rational number, or its text such as "3/10" or "0.3".

    Anything else, text such as "1/0" included, is refused with ``ValueError``.
    A float above all holds a binary fraction, so 0.1 would become
    3602879701896397/36028797018963968 rather than 1/10.  Text is read as
    ``Fraction`` reads it, also past the interpreter's limit on the digits
    ``int`` reads from a string: there each side of "a/b" is read through
    ``decimal.Decimal``, which has no such limit.
    """
    if type(x) is Fraction:  # immutable, so the caller's own value serves
        return x
    if not isinstance(x, (numbers.Rational, str)):
        raise ValueError(f"{x!r} is not exact: pass a Fraction, an int or a string such as '0.3'")
    try:
        try:
            return Fraction(x)
        except ValueError:  # only text gets here
            # with each run of digits cut to one digit, the text is read whole, and
            # Fraction's grammar accepts it exactly when it accepts x
            Fraction(re.sub(r"\d+", "1", x))
            numerator, _, denominator = x.partition("/")
            return Fraction(Decimal(numerator)) / Fraction(Decimal(denominator or "1"))
    except (ValueError, ArithmeticError):  # ArithmeticError: a zero denominator, decimal's refusals
        raise ValueError(f"{_quoted(x, repr)} is not a rational number") from None


def _quoted(text: str, form=str) -> str:
    """``form(text)`` for an error message; past 40 characters, ``form`` of the first 40 and the length."""
    return form(text) if len(text) <= 40 else f"{form(text[:40])}... ({len(text)} characters)"


def depolarising_weight(x: Fraction | int | str) -> Fraction:
    """The depolarising channel's weight q as an exact ``Fraction`` in [0, 1]; a refusal quotes ``x``, cut short."""
    q = exact_rational(x)
    if not 0 <= q <= 1:
        shown = x if isinstance(x, str) else rational_text(q)
        raise ValueError(f"depolarising weight must lie in [0, 1], got {_quoted(shown)}")
    return q


def _weight_grid(grid) -> list[Fraction]:
    """Each weight of the q grid ``grid`` (:func:`depolarising_weight`); a lone number or string is not a grid."""
    if isinstance(grid, (str, numbers.Number)):
        raise ValueError(f"q grid must be a collection of weights, got one {type(grid).__name__}")
    return [depolarising_weight(q) for q in grid]


def integer_text(i: int) -> str:
    """``str(i)``, also past the interpreter's int-to-str digit limit, which ``decimal.Decimal`` does not have."""
    try:
        return str(i)
    except ValueError:
        return str(Decimal(i))


def rational_text(x: Fraction) -> str:
    """``x`` as "num/den", every digit written (:func:`integer_text`)."""
    return f"{integer_text(x.numerator)}/{integer_text(x.denominator)}"


def format_frame(lam: YoungFrame, d: int | None = None) -> str:
    """Frame text, zero-padded to ``d`` rows when given (e.g. "4,0" for d=2); ``d`` is read by :func:`_integers`."""
    rows = lam.padded(*_integers((d,), "d", (1,))) if d is not None else (lam.reduced or (0,))
    return ",".join(str(r) for r in rows)


def enumerate_frames(d: int, n: int) -> list[YoungFrame]:
    """All frames with at most ``d`` rows and exactly ``n`` boxes: the level YF(d, n) of :func:`_lattice_level`.

    Deterministic decreasing lexicographic order on the zero-padded rows,
    e.g. (d=2, n=4) -> [(4,0), (3,1), (2,2)].  Each call returns a fresh list.
    ``d`` and ``n`` are read by :func:`_integers`.  A cold call builds levels
    0..n, as any fast-path call at (d, n) does: best of 20 on a 2-vCPU Intel
    Xeon VM, 0.2 ms at (4, 10), 3 ms at (3, 36) and 7 ms at (2, 128).

    Enforced caps: d <= 4 and n <= MAX_BOXES[d].  They were set where the
    exact channel output spectrum of every frame of YF(d, n) took about 5 s
    from cold caches when each output frame was its own sum over the skew
    counts.  With one push up Young's lattice per source frame the same
    sweep takes well under 1 s.  Measured on a 2-vCPU Intel Xeon VM (Python
    3.11.7), q = 1/3, one fresh process per cell, timed after import from
    the first enumeration on, median of three:

        d  n cap  frames  every frame  middle frame alone  every frame, larger n
        2   128     65       0.32 s        0.03 s           -
        3    36    127       0.14 s        0.01 s           n = 40: 0.30 s
        4    24    169       0.19 s        0.01 s           n = 28: 0.34 s

    d = 1 has a single frame at every n and shares the cap of d = 2.
    """
    return list(_checked_level(*_integers((d, n), "d and n", (1, 0))).frames)


def _checked_level(d: int, n: int) -> _Level:
    """The level YF(d, n) of :func:`_lattice_level` held to the caps, for ``d`` and ``n`` read by :func:`_integers`."""
    if d > MAX_ROW_BUDGET:
        raise ValueError(f"enumerate_frames(d={d}, n={n}) outside supported range (d <= {MAX_ROW_BUDGET})")
    if n > MAX_BOXES[d]:
        raise ValueError(
            f"enumerate_frames(d={d}, n={n}) outside supported range (0 <= n <= {MAX_BOXES[d]} for d={d})"
        )
    return _lattice_level(d, n)


@cache
def _hook_product(red: tuple[int, ...]) -> int:
    """The product of the hook lengths of the frame ``red`` (reduced rows).

    Frobenius's form (Fulton and Harris, Representation Theory, (4.11)): with
    k rows and the shifted lengths l_i = red_i + k - 1 - i, the hook product
    is prod l_i! / prod_{i<j} (l_i - l_j), one factorial per row.
    """
    k = len(red)
    shifted = [r + k - 1 - i for i, r in enumerate(red)]
    gaps = math.prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1:])
    product, rem = divmod(math.prod(map(math.factorial, shifted)), gaps)
    assert rem == 0
    return product


@cache
def _dim_sym(red: tuple[int, ...]) -> int:
    dim, rem = divmod(math.factorial(sum(red)), _hook_product(red))
    assert rem == 0
    return dim


def dim_sym(lam: YoungFrame) -> int:
    """Dimension of the S_n irrep labelled by ``lam`` (hook length formula).

    Equals the number of standard Young tableaux of that shape.
    """
    return _dim_sym(lam.reduced)


def _contents(red: tuple[int, ...], d: int) -> int:
    """The product of d + c over the boxes of ``red`` (c a box's content), for ``red`` of at most d rows."""
    # row i holds the contents d-i, ..., d-i+r-1: (d-i+r-1)! / (d-i-1)!
    return math.prod(math.perm(d - i + r - 1, r) for i, r in enumerate(red))


@cache
def _dim_unitary(red: tuple[int, ...], d: int) -> int:
    if len(red) > d:
        return 0
    dim, rem = divmod(_contents(red, d), _hook_product(red))
    assert rem == 0
    return dim


def dim_unitary(lam: YoungFrame, d: int) -> int:
    """Dimension of the U(d) irrep labelled by ``lam`` (hook content formula).

    Equals the number of semistandard Young tableaux of that shape with
    entries in 1..d; zero when the frame has more than ``d`` rows.
    """
    (d,) = _integers((d,), "d", (1,))
    return _dim_unitary(lam.reduced, d)


def _skew_counts(outer: tuple[int, ...], d: int) -> tuple[dict[int, int], ...]:
    """f^{outer/inner} for every inner inside outer: entry m maps each inner of m boxes, by position in YF(d, m).

    ``outer`` (reduced rows) has at most d rows.  One pass down Young's lattice
    from outer, removing one corner at a time: f^{outer/inner} counts the
    saturated chains from inner up to outer, so it is the sum of f^{outer/rho}
    over the rho inside outer that cover inner (the branching rule; Stanley,
    EC2 §7.10).
    """
    levels = [{_lattice_level(d, sum(outer)).index[outer]: 1}]
    for m in range(sum(outer), 0, -1):
        lower: dict[int, int] = {}
        covers = _lattice_level(d, m).covers
        for i, f in levels[-1].items():
            for j in covers[i]:
                lower[j] = lower.get(j, 0) + f
        levels.append(lower)
    return tuple(reversed(levels))


class _Level:
    """YF(d, m) as a level of Young's lattice, built from YF(d, m-1); it decides the order of every frame list.

    Each frame mu of the level below gains one box in each row that can take
    it (at most d rows), and every frame so reached records mu's position as
    one it covers.  ``reduced`` lists the reached frames in decreasing
    lexicographic order, the order :func:`enumerate_frames` returns, ``frames``
    holds them zero-padded to d rows, ``index`` gives each one's position, keyed
    by reduced rows, and ``covers[i]`` the positions in YF(d, m-1) of the
    frames that frame i covers, its top corner removed first: all that the
    pass down the lattice reads.  ``contents`` holds each frame's product of
    d + c over its boxes (c a box's content), carried up from the first frame
    it covers.  What the push back up reads is built on its first read, so a
    level below the lowest one a push injects into never builds its getters
    or its dim U.
    """

    def __init__(self, d: int, m: int):
        self.d, self.m = d, m
        reached: dict[tuple[int, ...], list[int]] = {} if m else {(): []}
        contents = {} if m else {(): 1}
        if m:
            below = _lattice_level(d, m - 1)
            for j, (mu, product) in enumerate(zip(below.reduced, below.contents)):
                for i, r in enumerate(mu + (0,) if len(mu) < d else mu):
                    if i and mu[i - 1] == r:
                        continue  # row i is as long as the row above it
                    lam = mu[:i] + (r + 1,) + mu[i + 1:]
                    positions = reached.get(lam)
                    if positions is None:
                        reached[lam] = [j]
                        contents[lam] = product * (d + r - i)  # the added box has content r - i
                    else:
                        positions.append(j)
        self.reduced = sorted(reached, reverse=True)
        self.index = {red: i for i, red in enumerate(self.reduced)}
        # mu comes later in YF(d, m-1) the higher the row its box was added to, so reverse the discovery
        self.covers = tuple(tuple(reversed(reached[red])) for red in self.reduced)
        self.contents = tuple(contents[red] for red in self.reduced)

    @cached_property
    def frames(self) -> tuple[YoungFrame, ...]:
        """The level's frames, zero-padded to d rows, built on the first read."""
        return tuple(YoungFrame(red + (0,) * (self.d - len(red))) for red in self.reduced)

    @cached_property
    def gather(self) -> tuple[Callable[[list[int]], tuple[int, ...]], ...]:
        """Getters on a list over YF(d, m-1) that ends in one extra 0.

        ``gather[c]`` gives, for each frame, the entry of its c-th covered
        frame (the extra 0 when it covers fewer), then the extra 0 again.
        """
        width = max(map(len, self.covers))
        return tuple(
            operator.itemgetter(*(row[c] if c < len(row) else -1 for row in self.covers), -1) for c in range(width)
        )

    @cached_property
    def sym(self) -> tuple[int, ...]:
        """f of each frame by the branching rule, the sum of f over the frames it covers (closed form: ``_dim_sym``)."""
        if not self.m:
            return (1,)
        lower = _lattice_level(self.d, self.m - 1).sym.__getitem__
        return tuple(sum(map(lower, row)) for row in self.covers)

    @cached_property
    def unitary(self) -> tuple[int, ...]:
        """dim U of each frame at d: f times its content product over m! (the hook content formula)."""
        boxes = math.factorial(self.m)
        return tuple(f * c // boxes for f, c in zip(self.sym, self.contents))


# YF(d, m) as a level of Young's lattice, built once per (d, m)
_lattice_level = cache(_Level)


def _probability(t: numbers.Real, what: str) -> numbers.Real:
    """``t`` itself when it is a real number in [0, 1]; anything else is refused with ``ValueError``."""
    if not isinstance(t, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {type(t).__name__}")
    if not 0 <= t <= 1:
        raise ValueError(f"{what} must lie in [0, 1], got {t}")
    return t


def binary_entropy(t: numbers.Real) -> float:
    """h(t) = -t*log2(t) - (1-t)*log2(1-t), with the 0*log(0) = 0 convention."""
    t = _probability(t, "binary_entropy argument")
    out = 0.0
    for p in (t, 1 - t):
        if p > 0:
            p = float(p)
            out -= p * math.log2(p)
    return out


def within_entropy_bound(x: int, b: int, k: int) -> bool:
    """Whether x <= 2**(k h(b/k)), decided on integers.

    With a = k - b, 2**(k h(b/k)) = k**k / (a**a b**b) (0**0 = 1), so the
    bound holds exactly when x a**a b**b <= k**k: no float entropy and no
    slack decides a case at equality.  ``x``, ``b`` and ``k`` are read by
    :func:`_integers`.
    """
    x, b, k = _integers((x, b, k), "x, b and k")
    if not 0 <= b <= k:
        raise ValueError(f"entropy bound needs 0 <= b <= k, got b={b} k={k}")
    a = k - b
    return x * a**a * b**b <= k**k


def rel_entropy(r: numbers.Real, s: numbers.Real) -> float:
    """Relative entropy D(r||s) in bits, r and s each a distribution on {0, 1} given as its probability of 0.

    +inf when s does not dominate r; downstream uses honor 2**(-a*D) == 0 for D == +inf, a > 0.
    """
    r, s = _probability(r, "r"), _probability(s, "s")
    total = 0.0
    for rx, sx in ((r, s), (1 - r, 1 - s)):
        if rx == 0:
            continue
        if sx == 0:
            return math.inf
        total += float(rx) * math.log2(float(rx) / float(sx))
    return total
