"""Fixed-support enumeration: which multiplicity vectors make the arithmetic
necessary condition hold for a support r_1 < ... < r_k?

Writing x_i for the multiplicity of r_i, the condition at part j reads

    sum_i R[j][i] * x_i = r_j - 1,     R[j][i] = 0              if i == j,
                                                r_i             if i < j,
                                                r_i mod r_j     if i > j.

Positive integer solutions x correspond exactly to q-vectors with support r
passing the necessary condition.  The solution set is finite whenever some
r_i with i < k does not divide r_k (the sum of rows k and i of R is then a
strictly positive vector constant on the solution space); in the all-divisors
case the family can be infinite and is enumerated up to a bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .core import GcdNotOne, InvalidRVector, NoSolution, QVector, make_qvector
from .linalg import solve_affine

DEFAULT_BOUND = 50


def _validate_r(r) -> tuple:
    parts = tuple(r)
    if not parts:
        raise InvalidRVector("support needs at least one part")
    for v in parts:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidRVector(f"part {v!r} is not a positive integer")
    if any(a >= b for a, b in zip(parts, parts[1:])):
        raise InvalidRVector("parts must be strictly increasing")
    return parts


@dataclass(frozen=True)
class SupportSystem:
    parts: tuple
    matrix: tuple  # k x k integer rows
    rhs: tuple  # r_j - 1 per row


def build_system(r) -> SupportSystem:
    parts = _validate_r(r)
    k = len(parts)
    rows = []
    for j in range(k):
        row = []
        for i in range(k):
            if i == j:
                row.append(0)
            elif i < j:
                row.append(parts[i])
            else:
                row.append(parts[i] % parts[j])
        rows.append(tuple(row))
    rhs = tuple(v - 1 for v in parts)
    return SupportSystem(parts=parts, matrix=tuple(rows), rhs=rhs)


@dataclass(frozen=True)
class SolutionSet:
    """Multiplicity vectors ordered by ascending sum(x_i r_i), then lex.

    kind == "finite": `solutions` is the complete list.
    kind == "unbounded_family": `solutions` is the slice with every free
    coordinate at most `bound`.
    """

    kind: str
    solutions: tuple
    bound: int = None


def _boundedness_certificate(system: SupportSystem):
    """A strictly positive vector in the row space, or None.

    Rows k and i of the matrix sum to a strictly positive vector exactly when
    r_i does not divide r_k; the certificate value on solutions is the
    matching sum of right-hand sides.
    """
    k = len(system.parts)
    if k < 2:
        return None
    last = system.matrix[k - 1]
    for i in range(k - 1):
        if system.parts[k - 1] % system.parts[i] != 0:
            cand = tuple(a + b for a, b in zip(last, system.matrix[i]))
            if all(v > 0 for v in cand):
                return cand, system.rhs[k - 1] + system.rhs[i]
    return None


def _order_key(parts):
    def key(x):
        return (sum(v * r for v, r in zip(x, parts)), x)

    return key


def solve_positive(system: SupportSystem, bound: int = None) -> SolutionSet:
    """All positive integer solutions of the support system.

    Raises NoSolution if the rational system is inconsistent.  When no
    boundedness certificate exists the enumeration is cut at `bound`
    (default 50) per coordinate and marked as an unbounded family.
    """
    sol = solve_affine([list(row) for row in system.matrix], list(system.rhs))
    if not sol.consistent:
        raise NoSolution(f"support {system.parts} admits no multiplicity vector")
    key = _order_key(system.parts)

    certificate = _boundedness_certificate(system)
    if certificate is None and sol.free_columns:
        bound = DEFAULT_BOUND if bound is None else bound
        free_ranges = [range(1, bound + 1) for _ in sol.free_columns]
        found = sorted(_scan_free(sol, free_ranges, upper=bound), key=key)
        return SolutionSet(kind="unbounded_family", solutions=tuple(found), bound=bound)

    # With no free column the scan checks the particular solution alone.
    free_ranges = []
    if certificate is not None:
        weights, total = certificate
        # a . x == total with a strictly positive and x >= 1 bounds each
        # free coordinate: x_c <= (total - sum_{j != c} a_j) / a_c.  A
        # negative slack leaves every range empty.
        slack = total - sum(weights)
        for c in sol.free_columns:
            free_ranges.append(range(1, 1 + (slack + weights[c]) // weights[c]))
    found = _scan_free(sol, free_ranges, upper=None)
    return SolutionSet(kind="finite", solutions=tuple(sorted(found, key=key)))


def _scan_free(sol, free_ranges, upper):
    """Integer points of the affine solution space over given free ranges."""
    out = []
    for assignment in product(*free_ranges):
        x = list(sol.particular)
        for value, basis in zip(assignment, sol.kernel_basis):
            if value:
                x = [a + value * b for a, b in zip(x, basis)]
        ok = True
        for v in x:
            if v.denominator != 1 or v < 1 or (upper is not None and v > upper):
                ok = False
                break
        if ok:
            out.append(tuple(int(v) for v in x))
    return out


def expand_solution(system: SupportSystem, x) -> QVector:
    out = []
    for r, mult in zip(system.parts, x):
        out.extend([r] * mult)
    return make_qvector(out)


def reflexive_family(r, count: int) -> list:
    """First `count` reflexive q-vectors supported by exactly the parts r.

    Every multiplicity is >= 1 and every r_i divides 1 + sum(q); requires
    gcd(r) == 1 (otherwise 1 + sum is coprime to the common divisor and
    nothing qualifies).  Ordered by ascending total sum(q), then by
    lexicographic multiplicity vector.
    """
    parts = _validate_r(r)
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = 0
    for v in parts:
        g = gcd(g, v)
    if g != 1:
        raise GcdNotOne(f"gcd of support {parts} is {g}, not 1")
    modulus = lcm(*parts)
    found = []
    total = sum(parts)  # minimum possible: every multiplicity equal to 1
    while len(found) < count:
        if (1 + total) % modulus == 0:
            for x in _compositions_with_weights(total, parts):
                entries = []
                for part, mult in zip(parts, x):
                    entries.extend([part] * mult)
                found.append(QVector(tuple(entries)))
                if len(found) == count:
                    break
        total += 1
    return found


def _compositions_with_weights(total, parts):
    """All x >= 1 with sum x_i * parts_i == total, lexicographic order."""
    k = len(parts)

    def rec(i, remaining):
        if i == k - 1:
            if remaining >= parts[i] and remaining % parts[i] == 0:
                yield (remaining // parts[i],)
            return
        tail_min = sum(parts[i + 1 :])
        v = 1
        while v * parts[i] + tail_min <= remaining:
            for rest in rec(i + 1, remaining - v * parts[i]):
                yield (v,) + rest
            v += 1

    return rec(0, total)
