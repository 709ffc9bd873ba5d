"""Young frames (integer partitions), dimension formulas and entropy helpers.

A Young frame with at most ``d`` rows and ``n`` boxes simultaneously labels an
irreducible representation of the symmetric group S_n (of dimension
:func:`dim_sym`) and a polynomial irreducible representation of U(d) (of
dimension :func:`dim_unitary`); both divide by one cached hook-length product,
taken in Frobenius's form from one factorial per row (:func:`_hook_product`).
Everything else in this package is built on these two dimension counts, the
skew standard-tableau counts of :func:`_skew_counts` (one pass down Young's
lattice per outer frame), the lattice levels of :func:`_lattice_level` (the
fast path's push up the lattice) and the binary entropy / relative entropy
helpers defined at the bottom.  The frame enumerator is the one partition enumerator:
the cycle types of S_n are its frames with n rows.

All functions here are pure and the memoized ones are safe to call from
multiple threads (recomputation under the GIL is idempotent).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Union

Scalar = Union[int, float, Fraction]

# Hard enumeration caps.  Requests beyond them are refused, never truncated.
# The box cap depends on d; see enumerate_frames for the measured costs.
MAX_ROW_BUDGET = 4
MAX_BOXES = {1: 128, 2: 128, 3: 36, 4: 24}


@dataclass(frozen=True, eq=False)
class YoungFrame:
    """Weakly decreasing tuple of non-negative row lengths.

    Trailing zero rows are permitted (frames enumerated with a row budget
    ``d`` are stored zero-padded to ``d`` entries) and do not affect identity:
    two frames are equal iff they agree after stripping trailing zeros.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(int(r) for r in self.rows)
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

    def fits(self, d: int) -> bool:
        return self.num_rows <= d

    def padded(self, d: int) -> tuple[int, ...]:
        """Rows zero-padded to exactly ``d`` entries."""
        red = self.reduced
        if len(red) > d:
            raise ValueError(f"frame {red} has more than {d} rows")
        return red + (0,) * (d - len(red))

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
    3602879701896397/36028797018963968 rather than 1/10.
    """
    if not isinstance(x, (numbers.Rational, str)):
        raise ValueError(f"{x!r} is not exact: pass a Fraction, an int or a string such as '0.3'")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{x!r} is not a rational number") from None


def depolarising_weight(q: Fraction | int | str) -> Fraction:
    """The replacement weight q of the depolarising channel as an exact ``Fraction`` in [0, 1]."""
    q = exact_rational(q)
    if not 0 <= q <= 1:
        raise ValueError(f"depolarising weight must lie in [0, 1], got {q}")
    return q


def format_frame(lam: YoungFrame, d: int | None = None) -> str:
    """Frame text, zero-padded to ``d`` rows when given (e.g. "4,0" for d=2)."""
    rows = lam.padded(d) if d is not None else (lam.reduced or (0,))
    return ",".join(str(r) for r in rows)


def enumerate_frames(d: int, n: int) -> list[YoungFrame]:
    """All frames with at most ``d`` rows and exactly ``n`` boxes.

    Deterministic decreasing lexicographic order on the zero-padded rows,
    e.g. (d=2, n=4) -> [(4,0), (3,1), (2,2)].  Each call returns a fresh list.

    Enforced caps: d <= 4 and n <= MAX_BOXES[d].  They were set where the
    exact channel output spectrum of every frame of YF(d, n) took about 5 s
    from cold caches when each output frame was its own sum over the skew
    counts.  With one push up Young's lattice per source frame the same
    sweep takes under 1 s.  Measured on a 2-vCPU VM (Python 3.11), q = 1/3,
    one fresh process per cell, after import, median of three:

        d  n cap  frames  every frame  middle frame alone  every frame, larger n
        2   128     65       0.60 s        0.08 s           -
        3    36    127       0.35 s        0.03 s           n = 40: 0.49 s
        4    24    169       0.36 s        0.03 s           n = 28: 0.75 s

    d = 1 has a single frame at every n and shares the cap of d = 2.
    """
    if d < 1:
        raise ValueError("row budget d must be >= 1")
    if d > MAX_ROW_BUDGET:
        raise ValueError(f"enumerate_frames(d={d}, n={n}) outside supported range (d <= {MAX_ROW_BUDGET})")
    if not 0 <= n <= MAX_BOXES[d]:
        raise ValueError(
            f"enumerate_frames(d={d}, n={n}) outside supported range (0 <= n <= {MAX_BOXES[d]} for d={d})"
        )
    return list(_enumerate_frames(d, n))


@cache
def _enumerate_frames(d: int, n: int) -> tuple[YoungFrame, ...]:
    out: list[YoungFrame] = []

    def descend(prefix: list[int], remaining: int, slots: int, max_part: int) -> None:
        if slots == 0:
            out.append(YoungFrame(tuple(prefix)))
            return
        # a row below ceil(remaining / slots) leaves too many boxes for the rows under it
        for p in range(min(max_part, remaining), -(-remaining // slots) - 1, -1):
            prefix.append(p)
            descend(prefix, remaining - p, slots - 1, p)
            prefix.pop()

    descend([], n, d, n)
    return tuple(out)


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


@cache
def _dim_unitary(red: tuple[int, ...], d: int) -> int:
    if len(red) > d:
        return 0
    # row i holds the contents d-i, ..., d-i+r-1: (d-i+r-1)! / (d-i-1)!
    contents = math.prod(math.perm(d - i + r - 1, r) for i, r in enumerate(red))
    dim, rem = divmod(contents, _hook_product(red))
    assert rem == 0
    return dim


def dim_unitary(lam: YoungFrame, d: int) -> int:
    """Dimension of the U(d) irrep labelled by ``lam`` (hook content formula).

    Equals the number of semistandard Young tableaux of that shape with
    entries in 1..d; zero when the frame has more than ``d`` rows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return _dim_unitary(lam.reduced, d)


def _below(rho: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The frames rho covers in Young's lattice: rho with one corner box removed, as reduced rows."""
    return [
        rho[:i] + (r - 1,) + rho[i + 1:] if r > 1 else rho[:i]
        for i, r in enumerate(rho)
        if i + 1 == len(rho) or rho[i + 1] < r
    ]


# A spectrum reads the counts of its source frame alone, and every caller
# finishes with one source before it starts the next (verify's fast-path loops
# go frame by frame; the CLI and the sweep read one source), so within one
# sweep a single entry serves every repeat read.  Reuse across sweeps is what
# the size buys: verify's checks sweep the same sources one after another, and
# 64 entries hold all 52 frames of at most 4 rows and 1..8 boxes, so a run at
# n <= 8 computes each source's counts once.  A larger sweep pays one miss per
# source and check.
@lru_cache(maxsize=64)
def _skew_counts(outer: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], ...]:
    """f^{outer/inner} for every frame inner inside outer: entry m maps each inner of m boxes, by reduced rows.

    One pass down Young's lattice from outer, removing one corner at a time:
    f^{outer/inner} counts the saturated chains from inner up to outer, so it
    is the sum of f^{outer/rho} over the rho inside outer that cover inner
    (the branching rule; Stanley, EC2 §7.10).  The pass runs on the frame
    indices of :func:`_lattice_level` with outer's row count as the budget,
    and every frame of one size is complete before the next size down starts.
    """
    rows = max(len(outer), 1)
    m = sum(outer)
    level = {_lattice_level(rows, m)[0][outer]: 1}
    levels = []
    while True:
        frames = _enumerate_frames(rows, m)
        levels.append({frames[i].reduced: f for i, f in level.items()})
        if m == 0:
            return tuple(reversed(levels))
        below: dict[int, int] = {}
        for column in _lattice_level(rows, m)[1]:
            for i, f in level.items():
                j = column[i]
                if j >= 0:
                    below[j] = below.get(j, 0) + f
        level = below
        m -= 1


@cache
def _lattice_level(d: int, m: int) -> tuple[dict[tuple[int, ...], int], tuple[tuple[int, ...], ...]]:
    """YF(d, m) as a level of Young's lattice: each frame's index, and the indices of the frames it covers.

    The index follows :func:`enumerate_frames` and is keyed by reduced rows.
    The covers come as columns: entry i of column c is the index in
    YF(d, m-1) of the c-th frame that frame i covers, or -1 when frame i
    covers fewer (at m = 0 there are no columns).
    """
    frames = _enumerate_frames(d, m)
    index = {f.reduced: i for i, f in enumerate(frames)}
    if m == 0:
        return index, ()
    lower = _lattice_level(d, m - 1)[0]
    covered = [[lower[rho] for rho in _below(f.reduced)] for f in frames]
    return index, tuple(
        tuple(row[c] if c < len(row) else -1 for row in covered) for c in range(max(map(len, covered)))
    )


@dataclass(frozen=True)
class ProbabilityPair:
    """Probability distribution on {0, 1}, stored through p0 (p1 = 1 - p0)."""

    p0: Scalar

    def __post_init__(self) -> None:
        if not 0 <= self.p0 <= 1:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0}")

    @property
    def p1(self) -> Scalar:
        return 1 - self.p0

    def __getitem__(self, x: int) -> Scalar:
        if x == 0:
            return self.p0
        if x == 1:
            return self.p1
        raise KeyError(x)


def binary_entropy(t: Scalar) -> float:
    """h(t) = -t*log2(t) - (1-t)*log2(1-t), with the 0*log(0) = 0 convention."""
    if not 0 <= t <= 1:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {t}")
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
    slack decides a case at equality.
    """
    if not 0 <= b <= k:
        raise ValueError(f"entropy bound needs 0 <= b <= k, got b={b} k={k}")
    a = k - b
    return x * a**a * b**b <= k**k


def rel_entropy(r: ProbabilityPair, s: ProbabilityPair) -> float:
    """Relative entropy D(r||s) in bits; +inf when s does not dominate r.

    Downstream uses honor the convention 2**(-a*D) == 0 for D == +inf, a > 0.
    """
    total = 0.0
    for x in (0, 1):
        rx, sx = r[x], s[x]
        if rx == 0:
            continue
        if sx == 0:
            return math.inf
        total += float(rx) * math.log2(float(rx) / float(sx))
    return total


def l1_distance(r: ProbabilityPair, s: ProbabilityPair) -> float:
    """Total variation norm ||r - s||_1 = |r0 - s0| + |r1 - s1|."""
    return abs(float(r.p0) - float(s.p0)) + abs(float(r.p1) - float(s.p1))
