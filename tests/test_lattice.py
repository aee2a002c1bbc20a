from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qvectors
from reflexive_lab import (
    InternalInconsistency,
    count_dilate_points,
    enumerate_dilate_points,
    fundamental_parallelepiped_histogram,
    fundamental_parallelepiped_points,
    make_qvector,
    normalized_volume,
)
from reflexive_lab import lattice


def box_filtered_dilate(q, t):
    """t * Delta cap Z^n by filtering the whole box [-t q_i, t]^n, in lex order."""
    s = normalized_volume(q)
    points = []
    for x in product(*[range(-t * qi, t + 1) for qi in q.entries]):
        u = t - sum(x)
        if u >= 0 and all(s * xi + u * qi >= 0 for xi, qi in zip(x, q.entries)):
            points.append(x)
    return points


def last_coordinate_count(q, t):
    """#(t * Delta cap Z^n) in Python ints: a box over x_1, ..., x_(n-1), and
    for each prefix the x_n interval cut out by u >= 0 and s * x_i + u * q_i >= 0."""
    s = normalized_volume(q)
    *head, qn = q.entries
    total = 0
    for prefix in product(*[range(-t * qi, t + 1) for qi in head]):
        rest = t - sum(prefix)
        # u = rest - x_n must be at least every -s * x_i / q_i and 0.
        u_min = max([0] + [-((s * xi) // qi) for xi, qi in zip(prefix, head)])
        # s * x_n + (rest - x_n) * q_n >= 0.
        lo = -((rest * qn) // (s - qn))
        total += max(rest - u_min - lo + 1, 0)
    return total


def filtered_parallelepiped(q):
    """The half-open parallelepiped's points (h, x) in Python ints, by
    filtering a box through 0 <= s * lam_j <= s - 1 for every j, where
    s * lam_0 = a = h - sum(x) and s * lam_i = s * x_i + a * q_i.

    The box: the lam_j sum to h and each is below 1, so 0 <= h <= n; and
    s * x_i = s * lam_i - a * q_i lies in [-(s - 1) q_i, s - 1], so
    1 - q_i <= x_i <= 0.  Sorted by height, then lexicographically.
    """
    s = normalized_volume(q)
    ranges = [range(q.n + 1)] + [range(1 - qi, 1) for qi in q.entries]
    points = []
    for h, *x in product(*ranges):
        a = h - sum(x)
        if 0 <= a < s and all(0 <= s * xi + a * qi < s for xi, qi in zip(x, q.entries)):
            points.append((h, *x))
    return points


class TestDilateCounts:
    def test_unit_tetrahedron_counts(self):
        # Verified by brute-force box scan and by series inversion against
        # the coefficient vector [1,1,1,1]:
        #   i(t) = C(t+3,3) + C(t+2,3) + C(t+1,3) + C(t,3).
        q = make_qvector([1, 1, 1])
        assert [count_dilate_points(q, t) for t in range(4)] == [1, 5, 15, 35]

    def test_two_three_counts(self):
        q = make_qvector([2, 3])
        assert [count_dilate_points(q, t) for t in range(3)] == [1, 7, 19]

    def test_zero_dilate_is_origin(self):
        q = make_qvector([4, 9])
        assert count_dilate_points(q, 0) == 1
        assert enumerate_dilate_points(q, 0) == [(0, 0)]

    def test_one_dimensional_segment(self):
        # Delta for q=(3) is the segment [-3, 1]: five lattice points.
        q = make_qvector([3])
        assert count_dilate_points(q, 1) == 5
        assert enumerate_dilate_points(q, 1) == [(-3,), (-2,), (-1,), (0,), (1,)]

    def test_negative_dilate_rejected(self):
        with pytest.raises(ValueError):
            count_dilate_points(make_qvector([1]), -1)

    @given(qvectors(max_n=3, max_entry=5), st.integers(min_value=0, max_value=3))
    def test_count_matches_enumeration(self, q, t):
        points = enumerate_dilate_points(q, t)
        assert count_dilate_points(q, t) == len(points)
        assert len(set(points)) == len(points)
        assert points == sorted(points)

    @given(qvectors(max_n=3, max_entry=5), st.integers(min_value=0, max_value=3))
    def test_enumeration_matches_box_filter(self, q, t):
        assert enumerate_dilate_points(q, t) == box_filtered_dilate(q, t)

    def test_numpy_and_python_paths_agree(self, monkeypatch):
        # The parallelepiped scan has two backends: a limit of 0 sends every
        # box to the numpy chunks, a huge one keeps every box in plain python.
        # Both must give identical results.  The dilates have one scan, which
        # must agree with the box filter on the same grid.
        grid = [make_qvector(e) for e in ([1], [4], [2, 3], [1, 5], [1, 1, 3],
                                          [2, 3, 5], [3, 4, 5, 6], [1, 2, 2, 6])]
        for q in grid:
            for t in range(5):
                points = box_filtered_dilate(q, t)
                assert enumerate_dilate_points(q, t) == points
                assert count_dilate_points(q, t) == len(points)

        monkeypatch.setattr(lattice, "_PYTHON_BOX_LIMIT", 0)
        numpy_results = [fundamental_parallelepiped_points(q) for q in grid]
        monkeypatch.setattr(lattice, "_PYTHON_BOX_LIMIT", 10**9)
        assert [fundamental_parallelepiped_points(q) for q in grid] == numpy_results

    @pytest.mark.parametrize("raw", [[1, 2**32 - 1], [2**32 - 1], [1, 1, 2**32 - 1]])
    def test_entries_at_the_word_bound_count_exactly(self, raw):
        # t * s * s passes 2^63 here; the counts must stay exact.
        q = make_qvector(raw)
        for t in range(3):
            assert count_dilate_points(q, t) == last_coordinate_count(q, t)

    def test_entries_at_the_word_bound_known_counts(self):
        q = make_qvector([1, 2**32 - 1])
        assert [count_dilate_points(q, t) for t in range(3)] == [1, 2147483651, 8589934598]

    def test_dilate_one_contains_all_vertices_and_origin(self):
        q = make_qvector([2, 2, 15, 20, 20])
        points = set(enumerate_dilate_points(q, 1))
        assert len(points) == 15
        assert (0, 0, 0, 0, 0) in points
        assert (-2, -2, -15, -20, -20) in points
        for i in range(5):
            e = tuple(1 if j == i else 0 for j in range(5))
            assert e in points


class TestFundamentalParallelepiped:
    def test_unit_tetrahedron_points(self):
        points = fundamental_parallelepiped_points(make_qvector([1, 1, 1]))
        assert points == [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]

    def test_point_count_equals_volume(self):
        for raw in ([2, 3], [2, 2], [1, 1, 3], [2, 2, 15, 20, 20]):
            q = make_qvector(raw)
            assert len(fundamental_parallelepiped_points(q)) == normalized_volume(q)

    def test_histogram_length_and_mass(self):
        q = make_qvector([2, 3])
        hist = fundamental_parallelepiped_histogram(q)
        assert len(hist) == q.n + 1
        assert sum(hist) == normalized_volume(q)
        assert hist == [1, 4, 1]

    @given(qvectors(max_n=4, max_entry=7))
    def test_heights_within_range(self, q):
        for p in fundamental_parallelepiped_points(q):
            assert 0 <= p[0] <= q.n

    @given(qvectors(max_n=4, max_entry=7))
    def test_origin_is_sole_height_zero_point(self, q):
        zero_height = [
            p for p in fundamental_parallelepiped_points(q) if p[0] == 0
        ]
        assert zero_height == [(0,) * (q.n + 1)]

    def test_matches_filtered_box_on_a_grid(self):
        grid = [
            make_qvector(c)
            for n in range(1, 4)
            for c in combinations_with_replacement(range(1, 8), n)
        ]
        assert len(grid) == 119
        for q in grid:
            assert fundamental_parallelepiped_points(q) == filtered_parallelepiped(q), q

    @given(qvectors(max_n=4, max_entry=7))
    def test_matches_filtered_box(self, q):
        assert fundamental_parallelepiped_points(q) == filtered_parallelepiped(q)

    def test_numpy_path_matches_python_path(self, monkeypatch):
        # The prefix box (5 * 11 * 12 * 13 prefixes) exceeds the pure-python
        # limit, so the default run takes the numpy chunks.
        q = make_qvector([9, 10, 11, 12])
        assert 5 * 11 * 12 * 13 > lattice._PYTHON_BOX_LIMIT
        points = fundamental_parallelepiped_points(q)
        assert len(points) == normalized_volume(q) == 43
        assert points == sorted(points)
        monkeypatch.setattr(lattice, "_PYTHON_BOX_LIMIT", 10**9)
        assert fundamental_parallelepiped_points(q) == points

    @pytest.mark.parametrize(
        "raw",
        [[1], [4], [2, 3], [1, 5], [1, 1, 3], [2, 3, 5], [3, 4, 5, 6], [1, 2, 2, 6],
         # the largest oracle_check box: 6 * 7 * 10 * 10 * 10 = 42,000 prefixes
         [5, 8, 8, 8, 10],
         # a non-reflexive q of the acceptance box (n <= 5, entries <= 12)
         [9, 10, 11, 12, 12]],
    )
    def test_chunk_size_does_not_change_the_points(self, monkeypatch, raw):
        # One prefix per chunk, and the whole box in one chunk, must list the
        # same points in the same order as the plain python scan.
        q = make_qvector(raw)
        monkeypatch.setattr(lattice, "_PYTHON_BOX_LIMIT", 10**9)
        expected = fundamental_parallelepiped_points(q)
        monkeypatch.setattr(lattice, "_PYTHON_BOX_LIMIT", 0)
        for rows in (1, 2**30):
            monkeypatch.setattr(lattice, "_CHUNK_ROWS", rows)
            assert fundamental_parallelepiped_points(q) == expected

    @pytest.mark.parametrize(
        "raw, perturb",
        [
            # a wrong entry
            ([2, 3], lambda adj: (adj[0], (adj[1][0] + 1,) + adj[1][1:]) + adj[2:]),
            # rows of equal entries swapped: same point set, wrong system
            ([2, 2], lambda adj: (adj[0], adj[2], adj[1])),
        ],
        ids=["entry", "swapped_rows"],
    )
    def test_perturbed_adjugate_is_rejected(self, monkeypatch, raw, perturb):
        # The scan trusts the barycentric system only after the independent
        # adjugate reproduces it row by row, not just its determinant.
        real = lattice.integer_adjugate

        def perturbed(rows):
            adj, det = real(rows)
            return perturb(adj), det

        monkeypatch.setattr(lattice, "integer_adjugate", perturbed)
        with pytest.raises(InternalInconsistency):
            fundamental_parallelepiped_points(make_qvector(raw))
