import time
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflexive_lab import (
    GcdNotOne,
    InvalidRVector,
    NoSolution,
    build_system,
    expand_solution,
    is_reflexive,
    necessary_condition,
    reflexive_family,
    solve_positive,
    support_of,
)
from reflexive_lab.support import DEFAULT_BOUND


def r_vectors(max_k=3, max_part=12):
    return st.lists(
        st.integers(min_value=1, max_value=max_part),
        min_size=1,
        max_size=max_k,
        unique=True,
    ).map(lambda xs: tuple(sorted(xs)))


class TestBuildSystem:
    def test_two_five(self):
        sys_ = build_system((2, 5))
        assert sys_.matrix == ((0, 1), (2, 0))
        assert sys_.rhs == (1, 4)

    def test_singleton_one(self):
        sys_ = build_system((1,))
        assert sys_.matrix == ((0,),)
        assert sys_.rhs == (0,)

    def test_three_parts(self):
        sys_ = build_system((2, 3, 5))
        assert sys_.matrix == ((0, 1, 1), (2, 0, 2), (2, 3, 0))
        assert sys_.rhs == (1, 2, 4)

    def test_rejects_unsorted_or_repeated(self):
        with pytest.raises(InvalidRVector):
            build_system((5, 2))
        with pytest.raises(InvalidRVector):
            build_system((2, 2))
        with pytest.raises(InvalidRVector):
            build_system((0, 1))
        with pytest.raises(InvalidRVector):
            build_system(())

    @given(r_vectors())
    def test_structure_invariants(self, r):
        sys_ = build_system(r)
        k = len(r)
        for j in range(k):
            assert sys_.matrix[j][j] == 0
            assert sys_.rhs[j] == r[j] - 1
            for i in range(j + 1, k):
                assert sys_.matrix[j][i] == r[i] % r[j]
                assert sys_.matrix[j][i] < r[j]


class TestSolvePositive:
    def test_two_five_finite_unique(self):
        solved = solve_positive(build_system((2, 5)))
        assert solved.kind == "finite"
        assert solved.solutions == ((2, 1),)
        q = expand_solution(build_system((2, 5)), (2, 1))
        assert q.entries == (2, 2, 5)

    def test_all_ones_family_unbounded(self):
        solved = solve_positive(build_system((1,)), bound=6)
        assert solved.kind == "unbounded_family"
        assert solved.bound == 6
        assert solved.solutions == ((1,), (2,), (3,), (4,), (5,), (6,))

    def test_one_two_family(self):
        # Row for part 1 is trivially satisfied; part 2 pins the count of
        # ones to 1 and leaves the twos free.
        solved = solve_positive(build_system((1, 2)), bound=4)
        assert solved.kind == "unbounded_family"
        assert solved.solutions == ((1, 1), (1, 2), (1, 3), (1, 4))

    def test_flagship_support_contains_example(self):
        system = build_system((3, 20, 24))
        solved = solve_positive(system)
        assert solved.kind == "finite"
        assert (1, 1, 4) in solved.solutions
        q = expand_solution(system, (1, 1, 4))
        assert q.entries == (3, 20, 24, 24, 24, 24)

    def test_inconsistent_system(self):
        with pytest.raises(NoSolution):
            solve_positive(build_system((2,)))

    def test_finite_whenever_some_part_does_not_divide_largest(self):
        for r in ((2, 5), (3, 20, 24), (2, 3), (3, 4), (2, 3, 5), (4, 6, 9)):
            rk = r[-1]
            assert any(rk % ri != 0 for ri in r[:-1])
            try:
                solved = solve_positive(build_system(r))
            except NoSolution:
                continue
            assert solved.kind == "finite"

    def test_unbounded_in_all_divisor_case(self):
        for r in ((1,), (1, 2), (1, 3), (1, 2, 4), (2, 4), (1, 5)):
            assert all(r[-1] % ri == 0 for ri in r)
            try:
                solved = solve_positive(build_system(r), bound=8)
            except NoSolution:
                continue
            assert solved.kind == "unbounded_family"

    @given(r_vectors())
    def test_solutions_satisfy_system_exactly(self, r):
        system = build_system(r)
        try:
            solved = solve_positive(system, bound=10)
        except NoSolution:
            return
        k = len(r)
        for x in solved.solutions:
            assert all(v >= 1 for v in x)
            for j in range(k):
                lhs = sum(system.matrix[j][i] * x[i] for i in range(k))
                assert lhs == system.rhs[j]

    @given(r_vectors())
    def test_solutions_pass_necessary_condition(self, r):
        # The linear system restates the necessary condition, so each
        # expanded solution must pass it (and conversely fixed-support
        # vectors passing it must solve the system).
        system = build_system(r)
        try:
            solved = solve_positive(system, bound=10)
        except NoSolution:
            return
        for x in solved.solutions:
            q = expand_solution(system, x)
            assert necessary_condition(q)
            assert support_of(q).parts == r

    @given(r_vectors())
    def test_ordering_is_total_then_lex(self, r):
        system = build_system(r)
        try:
            solved = solve_positive(system, bound=10)
        except NoSolution:
            return
        keys = [
            (sum(v * p for v, p in zip(x, r)), x) for x in solved.solutions
        ]
        assert keys == sorted(keys)


def _brute_force_solutions(system, box):
    """Every x in [1..box]^k with R x = r - 1, by ascending (sum x_i r_i, x)."""
    axes = np.meshgrid(*[np.arange(1, box + 1)] * len(system.parts), indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, len(system.parts))
    hits = (points @ np.array(system.matrix).T == np.array(system.rhs)).all(axis=1)
    found = [tuple(int(v) for v in x) for x in points[hits]]
    return sorted(found, key=lambda x: (sum(v * r for v, r in zip(x, system.parts)), x))


class TestSolvePositiveAgainstBruteForce:
    @pytest.mark.parametrize("bound", [None, 1, 2, 3, 4, 5, 6])
    def test_every_small_support(self, bound):
        """solve_positive matches a box filter on every support with k <= 3
        and parts <= 12.

        An unbounded family is the slice with every coordinate at most the
        bound, so the box side is the bound.  A finite family fits in
        [1..r_k]^k: row k reads sum_{i<k} r_i x_i = r_k - 1 with every
        x_i >= 1, so x_i <= r_k - 1 for i < k, and a pin row j (r_j not
        dividing r_k) reads (r_k mod r_j) x_k + (nonnegative terms) = r_j - 1,
        so x_k <= r_j - 1 < r_k.  NoSolution must leave the box empty.
        """
        for k in (1, 2, 3):
            for r in combinations(range(1, 13), k):
                system = build_system(r)
                unbounded = all(r[-1] % v == 0 for v in r)
                box = (DEFAULT_BOUND if bound is None else bound) if unbounded else r[-1]
                expected = _brute_force_solutions(system, box)
                try:
                    solved = solve_positive(system, bound=bound)
                except NoSolution:
                    assert expected == [], r
                    continue
                assert (solved.kind == "unbounded_family") == unbounded, r
                assert solved.bound == (box if unbounded else None), r
                assert list(solved.solutions) == expected, r


class TestSolvePositiveLargeParts:
    @pytest.mark.parametrize(
        "r, expected",
        [
            ((2, 3, 5, 100003), ()),  # nonsingular, det -40
            ((2, 3, 5, 7, 100003), ()),  # nonsingular
            ((2, 3, 12, 100062), ((1, 1, 8338, 1),)),  # nonsingular
            ((1, 2, 8, 100028), ((1, 1, 12503, 1),)),  # rank 3
            ((1, 2, 12, 100036), ((1, 1, 8336, 2),)),  # rank 3
            ((1, 2, 10, 11, 1208), ()),  # rank 4
            ((1, 10**7, 15 * 10**6 + 1), ()),  # rank 2; x_1 alone reaches 5 * 10**6
        ],
    )
    def test_cost_does_not_grow_with_the_last_part(self, r, expected):
        """Row k alone admits about r_k^(k-2) heads, and walking them all
        takes minutes at r_k = 100003.  The walk runs under every row at
        once, least reach first, so nonsingular and singular systems alike
        close after a few steps."""
        system = build_system(r)
        start = time.perf_counter()
        solved = solve_positive(system)
        assert time.perf_counter() - start < 1.0
        assert solved.kind == "finite"
        assert solved.solutions == expected
        for x in expected:
            assert [sum(a * v for a, v in zip(row, x)) for row in system.matrix] == list(
                system.rhs
            )


def _reflexive_box(r, box):
    """Every x in [1..box]^k with each part dividing 1 + sum x_i r_i, by
    ascending (sum x_i r_i, x)."""
    axes = np.meshgrid(*[np.arange(1, box + 1)] * len(r), indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, len(r))
    totals = points @ np.array(r)
    hits = np.all([(1 + totals) % part == 0 for part in r], axis=0)
    found = [tuple(int(v) for v in x) for x in points[hits]]
    return sorted(found, key=lambda x: (sum(v * p for v, p in zip(x, r)), x))


class TestReflexiveFamily:
    def test_first_members_match_a_filtered_box(self):
        """The first 6 members of every gcd-1 family with k <= 3 and parts
        <= 8 are the first 6 points of a filtered box.  The box grows until
        it holds 6 points and every x of total at most the 6th one's: such
        an x has x_i <= (total - sum r) // r_1 + 1."""
        checked = 0
        for k in (1, 2, 3):
            for r in combinations(range(1, 9), k):
                if gcd(*r) != 1:
                    continue
                box = 2
                while True:
                    first = _reflexive_box(r, box)[:6]
                    last = sum(v * p for v, p in zip(first[-1], r)) if first else 0
                    if len(first) == 6 and (last - sum(r)) // r[0] + 1 <= box:
                        break
                    box *= 2
                expected = [
                    tuple(p for p, mult in zip(r, x) for _ in range(mult)) for x in first
                ]
                assert [q.entries for q in reflexive_family(r, 6)] == expected, r
                checked += 1
        assert checked == 1 + 21 + 52

    def test_walks_a_large_total_only_as_far_as_count_needs(self):
        """The first total of (5, 6, 7, 8, 9) is 2519, which has 107,902,184
        members; the first three come without listing the rest."""
        parts = (5, 6, 7, 8, 9)
        start = time.perf_counter()
        family = reflexive_family(parts, 3)
        assert time.perf_counter() - start < 1.0
        assert [tuple(q.entries.count(p) for p in parts) for q in family] == [
            (1, 1, 1, 1, 277),
            (1, 1, 1, 10, 269),
            (1, 1, 1, 19, 261),
        ]

    def test_all_ones(self):
        family = reflexive_family((1,), 3)
        assert [q.entries for q in family] == [(1,), (1, 1), (1, 1, 1)]

    def test_one_three(self):
        family = reflexive_family((1, 3), 1)
        assert family[0].entries == (1, 1, 3)

    def test_two_five(self):
        family = reflexive_family((2, 5), 1)
        assert family[0].entries == (2, 2, 5)

    def test_members_are_reflexive_with_exact_support(self):
        for r in ((1, 3), (2, 5), (2, 3), (3, 4), (1, 2, 3), (2, 3, 5)):
            for q in reflexive_family(r, 4):
                assert is_reflexive(q)
                assert support_of(q).parts == r

    def test_requires_coprime_support(self):
        with pytest.raises(GcdNotOne):
            reflexive_family((2, 4), 1)
        with pytest.raises(GcdNotOne):
            reflexive_family((3,), 1)

    def test_count_zero(self):
        assert reflexive_family((1,), 0) == []
