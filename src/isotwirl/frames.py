"""Young frames (integer partitions), dimension formulas and entropy helpers.

A Young frame with at most ``d`` rows and ``n`` boxes simultaneously labels an
irreducible representation of the symmetric group S_n (of dimension
:func:`dim_sym`) and a polynomial irreducible representation of U(d) (of
dimension :func:`dim_unitary`).  Everything else in this package is built on
these two dimension counts, the skew standard-tableau count :func:`dim_skew`
and the binary entropy / relative entropy helpers defined at the bottom.

All functions here are pure and the memoized ones are safe to call from
multiple threads (recomputation under the GIL is idempotent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Union

Scalar = Union[int, float, Fraction]

# Hard enumeration caps.  Requests beyond them are refused, never truncated.
MAX_ROW_BUDGET = 4
MAX_BOXES = 16


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

    def conjugate(self) -> "YoungFrame":
        red = self.reduced
        if not red:
            return YoungFrame(())
        return YoungFrame(tuple(sum(1 for r in red if r > j) for j in range(red[0])))

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


def format_frame(lam: YoungFrame, d: int | None = None) -> str:
    """Frame text, zero-padded to ``d`` rows when given (e.g. "4,0" for d=2)."""
    rows = lam.padded(d) if d is not None else (lam.reduced or (0,))
    return ",".join(str(r) for r in rows)


def enumerate_frames(d: int, n: int) -> list[YoungFrame]:
    """All frames with at most ``d`` rows and exactly ``n`` boxes.

    Deterministic decreasing lexicographic order on the zero-padded rows,
    e.g. (d=2, n=4) -> [(4,0), (3,1), (2,2)].  Enforced caps: d <= 4, n <= 16.
    Each call returns a fresh list.
    """
    if d < 1:
        raise ValueError("row budget d must be >= 1")
    if d > MAX_ROW_BUDGET or n > MAX_BOXES or n < 0:
        raise ValueError(
            f"enumerate_frames(d={d}, n={n}) outside supported range "
            f"(d <= {MAX_ROW_BUDGET}, 0 <= n <= {MAX_BOXES})"
        )
    return list(_enumerate_frames(d, n))


@cache
def _enumerate_frames(d: int, n: int) -> tuple[YoungFrame, ...]:
    out: list[YoungFrame] = []

    def descend(prefix: list[int], remaining: int, slots: int, max_part: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(YoungFrame(tuple(prefix)))
            return
        top = min(max_part, remaining)
        for p in range(top, -1, -1):
            if p == 0 and remaining > 0:
                break
            prefix.append(p)
            descend(prefix, remaining - p, slots - 1, p)
            prefix.pop()

    descend([], n, d, n)
    return tuple(out)


@cache
def _dim_sym(red: tuple[int, ...]) -> int:
    if not red:
        return 1
    conj = tuple(sum(1 for r in red if r > j) for j in range(red[0]))
    hooks = 1
    for i, r in enumerate(red):
        for j in range(r):
            hooks *= (r - j) + (conj[j] - i) - 1
    n = sum(red)
    dim, rem = divmod(math.factorial(n), hooks)
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
    if not red:
        return 1
    conj = tuple(sum(1 for r in red if r > j) for j in range(red[0]))
    val = Fraction(1)
    for i, r in enumerate(red):
        for j in range(r):
            hook = (r - j) + (conj[j] - i) - 1
            val *= Fraction(d + j - i, hook)
    assert val.denominator == 1
    return val.numerator


def dim_unitary(lam: YoungFrame, d: int) -> int:
    """Dimension of the U(d) irrep labelled by ``lam`` (hook content formula).

    Equals the number of semistandard Young tableaux of that shape with
    entries in 1..d; zero when the frame has more than ``d`` rows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return _dim_unitary(lam.reduced, d)


@cache
def _dim_skew(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    rows = len(outer)
    if len(inner) > rows or any(m > r for m, r in zip(inner, outer)):
        return 0
    inner = inner + (0,) * (rows - len(inner))
    # Aitken: f^{outer/inner} = N! det[1/(outer_i - inner_j - i + j)!], 1/(negative)! = 0.
    mat = [[Fraction(0)] * rows for _ in range(rows)]
    for i in range(rows):
        for j in range(rows):
            a = outer[i] - inner[j] - i + j
            if a >= 0:
                mat[i][j] = Fraction(1, math.factorial(a))
    # No pivoting: each leading principal minor is the (nonzero) count for the
    # top rows alone, up to a factorial.
    det = Fraction(1)
    for c in range(rows):
        det *= mat[c][c]
        for r in range(c + 1, rows):
            factor = mat[r][c] / mat[c][c]
            if factor:
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[c])]
    val = math.factorial(sum(outer) - sum(inner)) * det
    assert val.denominator == 1 and val >= 0
    return val.numerator


def dim_skew(outer: YoungFrame, inner: YoungFrame) -> int:
    """Number of standard Young tableaux of the skew shape outer/inner.

    Computed by Aitken's determinant (Stanley, EC2 §7.16); zero when inner
    does not fit inside outer.  Equals sum over nu of c^outer_{inner nu} dim F_nu.
    """
    return _dim_skew(outer.reduced, inner.reduced)


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
