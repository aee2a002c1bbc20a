"""Fixed-support enumeration: which multiplicity vectors make the arithmetic
necessary condition hold for a support r_1 < ... < r_k?

Writing x_i for the multiplicity of r_i, the condition at part j reads

    sum_i R[j][i] * x_i = r_j - 1,     R[j][i] = 0              if i == j,
                                                r_i             if i < j,
                                                r_i mod r_j     if i > j.

Positive integer solutions x correspond exactly to q-vectors with support r
passing the necessary condition.

Row k has R[k][i] = r_i for i < k and R[k][k] = 0, so it reads
sum_{i<k} r_i x_i = r_k - 1: each x_i with i < k is at most r_k - 1, and
x_(k-1) is fixed by the others.  Column k holds r_k mod r_j in row j < k, so
x_k enters only the rows j with r_j not dividing r_k.  The first such row,
the pin row, bounds x_k, and the family is finite.  When every part divides
r_k, column k is zero, x_k is free, and the family is enumerated up to a
bound.

A rational solve only decides whether the system is consistent; every
positive solution is then listed by one walk under all rows at once: R is
nonnegative, so each row bounds the coordinates it holds, and a row with
one coordinate left open fixes it.  The same walk lists the reflexive
family of a support, over the one row sum_i r_i x_i = total.
"""

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

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
    kind == "unbounded_family": `solutions` is the slice with every
    coordinate at most `bound`.
    """

    kind: str
    solutions: tuple
    bound: int = None


def solve_positive(system: SupportSystem, bound: int = None) -> SolutionSet:
    """All positive integer solutions of the support system.

    Raises NoSolution if the rational system is inconsistent.  Without a pin
    row every coordinate is cut at `bound` (default 50) and the result is
    marked as an unbounded family.
    """
    if bound is not None and bound < 1:
        raise ValueError(f"multiplicity bound must be at least 1, got {bound}")
    rows, rhs = system.matrix, system.rhs
    if not solve_affine(rows, rhs):
        raise NoSolution(f"support {system.parts} admits no multiplicity vector")
    *head_parts, last = system.parts
    pinned = any(last % r for r in head_parts)
    if not pinned:
        bound = DEFAULT_BOUND if bound is None else bound
    found = sorted(
        _positive_points(rows, rhs, cap=None if pinned else bound),
        key=lambda x: (sum(map(mul, x, system.parts)), x),
    )
    if pinned:
        return SolutionSet(kind="finite", solutions=tuple(found))
    return SolutionSet(kind="unbounded_family", solutions=tuple(found), bound=bound)


def _positive_points(rows, rhs, cap, order=None):
    """Yield every x >= 1 with R x = rhs; x_i <= cap if cap is set.

    R is a nonnegative m x k matrix.  Every coordinate must be bounded: a
    row holding it with a positive entry bounds it, and `cap` bounds the
    rest, so a column of zeros needs `cap`.  With the coordinates still
    open at their least value 1 no row may exceed its right-hand side:
    room[j] is what row j has left, and x_i can exceed 1 by at most
    room[j] // R[j][i] in each row j with R[j][i] > 0.

    The walk fixes the coordinates in `order`, by default the least such
    reach first, and yields the points in lexicographic order of the
    coordinates so taken.  A row whose last open positive entry is x_i
    fixes x_i outright.
    """
    k = len(rows[0])
    room = [b - sum(row) for row, b in zip(rows, rhs)]
    if min(room) < 0:
        return

    def reach(i):
        bounds = [room[j] // row[i] for j, row in enumerate(rows) if row[i]]
        return min(bounds, default=cap)

    order = sorted(range(k), key=reach) if order is None else list(order)
    column = [[(j, row[i]) for j, row in enumerate(rows) if row[i]] for i in order]
    closing = [
        next((j for j, _ in col if not any(rows[j][i] for i in order[t + 1 :])), None)
        for t, col in enumerate(column)
    ]

    def rec(t, x, room):
        if t == k:
            if not any(room):
                yield tuple(v for _, v in sorted(zip(order, x)))
            return
        j = closing[t]
        if j is not None:
            extra, off = divmod(room[j], rows[j][order[t]])
            extras = [] if off else [extra]
        elif column[t]:
            extras = range(1 + min(room[j] // a for j, a in column[t]))
        else:  # a column of zeros, such as x_k when every part divides r_k
            extras = range(cap)
        for e in extras:
            if cap is not None and e >= cap:
                break
            left = list(room)
            for j, a in column[t]:
                left[j] -= a * e
            if min(left) < 0:
                break
            yield from rec(t + 1, x + (1 + e,), left)

    yield from rec(0, (), room)


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

    The totals are those with lcm(r) | 1 + total, and each one's members
    are the points of the one-row system sum_i r_i x_i = total, walked in
    coordinate order so that they come out lexicographically and a large
    total is only walked as far as `count` needs.
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
    least = sum(parts)  # every multiplicity equal to 1
    members = (
        x
        for total in itertools.count(least + (-1 - least) % modulus, modulus)
        for x in _positive_points([parts], [total], cap=None, order=range(len(parts)))
    )
    return [
        QVector(tuple(p for p, mult in zip(parts, x) for _ in range(mult)))
        for x in itertools.islice(members, count)
    ]
