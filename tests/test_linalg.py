"""linalg against test-local references: cofactor expansion for the adjugate
and determinant, and minor ranks for the consistency of A x = b."""

import random
from itertools import combinations

import pytest

from reflexive_lab.linalg import integer_adjugate, solve_affine


def cofactor_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** c * v * cofactor_det([row[:c] + row[c + 1:] for row in m[1:]])
        for c, v in enumerate(m[0])
        if v
    )


def cofactor_adjugate(m):
    """adj(M)[i][j] = (-1)^(i+j) det(M without row j and column i)."""
    n = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * cofactor_det([row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j])
            for j in range(n)
        )
        for i in range(n)
    )


def minor_rank(m):
    """Largest r with a nonzero r x r minor."""
    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), r):
            for cs in combinations(range(cols), r):
                if cofactor_det([[m[i][j] for j in cs] for i in rs]):
                    return r
    return 0


def random_matrix(rng, rows, cols, span=4):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


class TestIntegerAdjugate:
    def test_random_matrices_match_cofactor_expansion(self):
        rng = random.Random(20161)
        checked = swaps = 0
        while checked < 200:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            if checked % 2:
                m[0][0] = 0  # column 0 then needs a row swap to find its pivot
            det = cofactor_det(m)
            if det == 0:
                continue
            swaps += m[0][0] == 0
            assert integer_adjugate(m) == (cofactor_adjugate(m), det), m
            checked += 1
        assert swaps >= 100

    def test_one_by_one(self):
        assert integer_adjugate([[-7]]) == (((1,),), -7)

    def test_singular_input_raises(self):
        rng = random.Random(7)
        singular = [[[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]]
        while len(singular) < 40:
            n = rng.randint(2, 5)
            m = random_matrix(rng, n, n, span=1)
            if cofactor_det(m) == 0:
                singular.append(m)
        for m in singular:
            with pytest.raises(ZeroDivisionError):
                integer_adjugate(m)


class TestSolveAffine:
    def test_random_systems(self):
        """A x = b is consistent exactly when [A | b] has the rank of A."""
        rng = random.Random(99)
        verdicts = set()
        for trial in range(300):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols, span=3 if trial % 3 else 1)
            if trial % 2:  # a consistent right-hand side
                x0 = [rng.randint(-3, 3) for _ in range(cols)]
                b = [sum(v * x for v, x in zip(row, x0)) for row in a]
            else:
                b = [rng.randint(-5, 5) for _ in range(rows)]
            consistent = solve_affine(a, b)
            aug_rank = minor_rank([row + [bv] for row, bv in zip(a, b)])
            assert consistent is (minor_rank(a) == aug_rank), (a, b)
            assert consistent or trial % 2 == 0, (a, b)
            verdicts.add(consistent)
        assert verdicts == {False, True}
