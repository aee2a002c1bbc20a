import pytest
from hypothesis import given

from conftest import qvectors
from reflexive_lab import (
    HStarPolynomial,
    InvalidQVector,
    QVector,
    format_hstar,
    format_qvector,
    is_reflexive,
    make_qvector,
    normalized_volume,
    build_system,
    expand_solution,
    parse_qvector,
    support_of,
)
from reflexive_lab.core import trim_zeros


class TestMakeQVector:
    def test_sorts_input(self):
        assert make_qvector([3, 1, 1]).entries == (1, 1, 3)

    def test_singleton(self):
        assert make_qvector([1]).entries == (1,)

    def test_already_sorted_kept(self):
        assert make_qvector([2, 2, 15, 20, 20]).entries == (2, 2, 15, 20, 20)

    def test_rejects_empty(self):
        with pytest.raises(InvalidQVector):
            make_qvector([])

    def test_rejects_zero_and_negative(self):
        with pytest.raises(InvalidQVector):
            make_qvector([0, 1])
        with pytest.raises(InvalidQVector):
            make_qvector([-2])

    def test_rejects_oversized_entries(self):
        with pytest.raises(InvalidQVector):
            make_qvector([2**32])

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidQVector):
            make_qvector([1.5, 2])

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(InvalidQVector):
            QVector((3, 1))

    @given(qvectors())
    def test_idempotent(self, q):
        assert make_qvector(list(q.entries)) == q


class TestSupport:
    def test_mixed_support(self):
        sup = support_of(make_qvector([1, 1, 1, 1, 1, 3]))
        assert sup.parts == (1, 3)
        assert sup.multiplicities == (5, 1)

    def test_single_entry(self):
        sup = support_of(make_qvector([7]))
        assert sup.parts == (7,)
        assert sup.multiplicities == (1,)

    def test_two_parts(self):
        sup = support_of(make_qvector([2, 2, 5]))
        assert sup.parts == (2, 5)
        assert sup.multiplicities == (2, 1)

    @given(qvectors())
    def test_expand_round_trip(self, q):
        sup = support_of(q)
        assert expand_solution(build_system(sup.parts), sup.multiplicities) == q


class TestReflexivity:
    def test_all_ones(self):
        assert is_reflexive(make_qvector([1, 1, 1]))

    def test_two_three(self):
        assert is_reflexive(make_qvector([2, 3]))

    def test_two_two_fails(self):
        assert not is_reflexive(make_qvector([2, 2]))

    @given(qvectors())
    def test_divisibility_formulations_agree(self, q):
        s = normalized_volume(q)
        per_entry = all((s - v) % v == 0 for v in q.entries)
        via_total = all(s % v == 0 for v in q.entries)
        assert is_reflexive(q) == per_entry == via_total


class TestNormalizedVolume:
    def test_small(self):
        assert normalized_volume(make_qvector([1, 1, 1])) == 4

    def test_flagship(self):
        assert normalized_volume(make_qvector([3, 20, 24, 24, 24, 24])) == 120

    def test_composed(self):
        assert normalized_volume(make_qvector([1, 1, 1, 1, 1, 3])) == 9


class TestTextEncodings:
    def test_parse_format_round_trip(self):
        q = parse_qvector("2,2,15,20,20")
        assert format_qvector(q) == "2,2,15,20,20"

    def test_parse_sorts(self):
        assert parse_qvector("3,1,1").entries == (1, 1, 3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1,,2", "a,b", "1, 2 x", "--3"):
            with pytest.raises(InvalidQVector):
                parse_qvector(bad)

    def test_parse_accepts_whitespace(self):
        assert parse_qvector(" 1, 2 ,3 ").entries == (1, 2, 3)

    def test_hstar_format(self):
        h = HStarPolynomial((1, 16, 29, 28, 29, 16, 1))
        assert format_hstar(h) == "[1,16,29,28,29,16,1]"

    @given(qvectors())
    def test_round_trip_property(self, q):
        assert parse_qvector(format_qvector(q)) == q


class TestHStarPolynomial:
    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(InvalidQVector):
            HStarPolynomial((2, 1))

    def test_rejects_negative(self):
        with pytest.raises(InvalidQVector):
            HStarPolynomial((1, -1))

    def test_trimmed_view(self):
        h = HStarPolynomial((1, 2, 1, 0))
        assert trim_zeros(h) == (1, 2, 1)
        assert h.degree == 2
        assert h.coefficients == (1, 2, 1, 0)

    def test_volume_is_coefficient_sum(self):
        assert HStarPolynomial((1, 4, 1)).volume() == 6

