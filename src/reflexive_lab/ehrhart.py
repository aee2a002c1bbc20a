"""h*-vectors for the simplex of a q-vector, plus coefficient-shape predicates.

Three routes to the same coefficients:

  * hstar_closed_form      -- weight scan b -> b - sum(floor(q_i b / s));
                              requires reflexivity.
  * hstar_oracle_interpolation  -- counts dilate lattice points for
                              t = 0..n and inverts the binomial transform.
  * hstar_oracle_parallelepiped -- histograms the heights of the integer
                              points of the half-open vertex parallelepiped.

The two oracles share none of the closed form's arithmetic; they exist to
cross-check it and to handle non-reflexive input.
"""

from dataclasses import dataclass
from math import comb

from .core import (
    HStarPolynomial,
    NotReflexive,
    OracleTooLarge,
    PayneConstraint,
    QVector,
    is_reflexive,
    normalized_volume,
    trim_zeros,
)
from .lattice import count_dilate_points, fundamental_parallelepiped_histogram


@dataclass(frozen=True)
class OracleCaps:
    """Feasibility gate for brute-force enumeration."""

    max_dimension: int
    max_entry_sum: int

    def __post_init__(self):
        if self.max_dimension < 1 or self.max_entry_sum < 1:
            raise ValueError(
                f"oracle caps must be at least 1, got "
                f"{self.max_dimension}:{self.max_entry_sum}"
            )

    def check(self, q: QVector, what: str) -> None:
        if q.n > self.max_dimension:
            raise OracleTooLarge(
                f"{what}: dimension {q.n} exceeds cap {self.max_dimension}"
            )
        total = sum(q.entries)
        if total > self.max_entry_sum:
            raise OracleTooLarge(
                f"{what}: entry sum {total} exceeds cap {self.max_entry_sum}"
            )


EHRHART_ORACLE_CAPS = OracleCaps(max_dimension=7, max_entry_sum=200)


def weights(q: QVector, scan) -> list:
    """The weight b - sum_i floor(q_i b / s) of each scan index b in `scan`:
    the height of the parallelepiped point that b selects."""
    s = normalized_volume(q)
    entries = q.entries
    return [b - sum((qi * b) // s for qi in entries) for b in scan]


def hstar_closed_form(q: QVector) -> HStarPolynomial:
    """Histogram of the weights of b = 0..sum(q).  Reflexive input only."""
    if not is_reflexive(q):
        raise NotReflexive(f"q = {q} is not reflexive; use an oracle instead")
    counts = [0] * (q.n + 1)
    for w in weights(q, range(normalized_volume(q))):
        counts[w] += 1
    return HStarPolynomial(tuple(counts))


def hstar_oracle_interpolation(q: QVector, caps: OracleCaps = None) -> HStarPolynomial:
    """Recover h* from the dilate counts i(P; t), t = 0..n.

    h*_j = sum_{i=0..j} (-1)^i C(n+1, i) i(P; j - i).
    """
    caps = caps or EHRHART_ORACLE_CAPS
    caps.check(q, "interpolation oracle")
    n = q.n
    counts = [count_dilate_points(q, t) for t in range(n + 1)]
    coeffs = []
    for j in range(n + 1):
        hj = sum((-1) ** i * comb(n + 1, i) * counts[j - i] for i in range(j + 1))
        coeffs.append(hj)
    return HStarPolynomial(tuple(coeffs))


def hstar_oracle_parallelepiped(q: QVector, caps: OracleCaps = None) -> HStarPolynomial:
    """Histogram the parallelepiped point heights (works for any q)."""
    caps = caps or EHRHART_ORACLE_CAPS
    caps.check(q, "parallelepiped oracle")
    return HStarPolynomial(tuple(fundamental_parallelepiped_histogram(q)))


def is_unimodal(h) -> bool:
    """Rise-then-fall after trimming trailing zeros.

    Internal zeros between positive entries count as dips.  The empty and
    single-entry sequences are unimodal.
    """
    c = trim_zeros(h)
    i = 0
    while i + 1 < len(c) and c[i] <= c[i + 1]:
        i += 1
    while i + 1 < len(c) and c[i] >= c[i + 1]:
        i += 1
    return i >= len(c) - 1


def is_symmetric(h) -> bool:
    """Palindrome test on the trimmed coefficient vector."""
    c = trim_zeros(h)
    return c == tuple(reversed(c))


def payne_qvector(s: int, k: int, r: int) -> QVector:
    """The vector (1^(sk-1), s^(r+1)); needs r >= 0, s >= 3, k >= r + 2."""
    if r < 0 or s < 3 or k < r + 2:
        raise PayneConstraint(f"need r >= 0, s >= 3, k >= r + 2; got s={s} k={k} r={r}")
    return QVector(tuple([1] * (s * k - 1) + [s] * (r + 1)))


def payne_hstar_product(s: int, k: int, r: int) -> HStarPolynomial:
    """(1 + z^k + ... + z^((s-1)k)) * (1 + z + ... + z^(k+r)), expanded."""
    if r < 0 or s < 3 or k < r + 2:
        raise PayneConstraint(f"need r >= 0, s >= 3, k >= r + 2; got s={s} k={k} r={r}")
    degree = s * k + r  # (s-1)k from the first factor, k + r from the second
    coeffs = [0] * (degree + 1)
    for j in range(s):
        for t in range(k + r + 1):
            coeffs[j * k + t] += 1
    return HStarPolynomial(tuple(coeffs))
