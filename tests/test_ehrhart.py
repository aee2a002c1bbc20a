from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qvectors, reflexive_qvectors
from reflexive_lab import (
    NotReflexive,
    OracleCaps,
    OracleTooLarge,
    PayneConstraint,
    hstar_closed_form,
    hstar_oracle_interpolation,
    hstar_oracle_parallelepiped,
    is_reflexive,
    is_symmetric,
    is_unimodal,
    iter_reflexive_qvectors,
    make_qvector,
    normalized_volume,
    payne_hstar_product,
    payne_qvector,
)
from reflexive_lab.ehrhart import weights


class TestClosedForm:
    def test_all_ones(self):
        assert hstar_closed_form(make_qvector([1, 1, 1])).coefficients == (1, 1, 1, 1)

    def test_flagship_vector(self):
        h = hstar_closed_form(make_qvector([3, 20, 24, 24, 24, 24]))
        assert h.coefficients == (1, 16, 29, 28, 29, 16, 1)

    def test_self_composed_vector(self):
        h = hstar_closed_form(make_qvector([1, 1, 1, 1, 1, 3, 9, 9, 9, 9, 9, 27]))
        assert h.coefficients == (1, 2, 5, 6, 10, 10, 13, 10, 10, 6, 5, 2, 1)

    def test_witness_vector(self):
        h = hstar_closed_form(make_qvector([2, 2, 15, 20, 20]))
        assert h.coefficients == (1, 9, 20, 20, 9, 1)

    def test_rejects_non_reflexive(self):
        with pytest.raises(NotReflexive):
            hstar_closed_form(make_qvector([2, 2]))

    @given(reflexive_qvectors())
    def test_volume_property(self, q):
        assert hstar_closed_form(q).volume() == normalized_volume(q)

    @given(reflexive_qvectors())
    def test_weight_zero_only_at_origin(self, q):
        w = weights(q, range(normalized_volume(q)))
        assert w[0] == 0
        assert all(1 <= x <= q.n for x in w[1:])

    @given(reflexive_qvectors())
    def test_leading_coefficient(self, q):
        assert hstar_closed_form(q).coefficients[0] == 1


class TestInterpolationOracle:
    def test_all_ones(self):
        h = hstar_oracle_interpolation(make_qvector([1, 1, 1]))
        assert h.coefficients == (1, 1, 1, 1)

    def test_two_three(self):
        h = hstar_oracle_interpolation(make_qvector([2, 3]))
        assert h.coefficients == (1, 4, 1)

    def test_all_ones_pair(self):
        h = hstar_oracle_interpolation(make_qvector([1, 1]))
        assert h.coefficients == (1, 1, 1)

    def test_caps_enforced(self):
        with pytest.raises(OracleTooLarge):
            hstar_oracle_interpolation(make_qvector([1] * 8))
        with pytest.raises(OracleTooLarge):
            hstar_oracle_interpolation(make_qvector([201]))

    def test_caps_overridable(self):
        caps = OracleCaps(max_dimension=8, max_entry_sum=200)
        h = hstar_oracle_interpolation(make_qvector([1] * 8), caps)
        assert h.coefficients == (1,) * 9

    def test_non_reflexive_input_allowed(self):
        assert hstar_oracle_interpolation(make_qvector([2, 2])).coefficients == (1, 2, 2)

    def test_large_q_within_default_caps(self):
        # n = 7 and sum 167: a scan of the box x_i in [-t q_i, t] would visit
        # ~2 * 10^13 prefixes at t = 7, for a dilate of 60,803 points.
        q = make_qvector([21, 21, 21, 24, 24, 28, 28])
        assert is_reflexive(q) and q.n == 7 and sum(q.entries) == 167
        assert hstar_oracle_interpolation(q) == hstar_closed_form(q)


class TestParallelepipedOracle:
    def test_all_ones(self):
        h = hstar_oracle_parallelepiped(make_qvector([1, 1, 1]))
        assert h.coefficients == (1, 1, 1, 1)

    def test_payne_smallest(self):
        h = hstar_oracle_parallelepiped(make_qvector([1, 1, 1, 1, 1, 3]))
        assert h.coefficients == (1, 1, 2, 1, 2, 1, 1)

    def test_two_three(self):
        h = hstar_oracle_parallelepiped(make_qvector([2, 3]))
        assert h.coefficients == (1, 4, 1)

    def test_non_reflexive_input_allowed(self):
        assert hstar_oracle_parallelepiped(make_qvector([2, 2])).coefficients == (1, 2, 2)

    def test_caps_enforced(self):
        with pytest.raises(OracleTooLarge):
            hstar_oracle_parallelepiped(make_qvector([1] * 8))


class TestOracleEquivalence:
    def test_reflexive_up_to_sum_sixty(self):
        # Module invariant: all three routes agree on every reflexive q
        # with n <= 5 and sum(q) <= 60.
        checked = 0
        for q in iter_reflexive_qvectors(5, 60):
            closed = hstar_closed_form(q)
            assert closed == hstar_oracle_interpolation(q), q
            assert closed == hstar_oracle_parallelepiped(q), q
            checked += 1
        assert checked == 242

    @given(qvectors(max_n=4, max_entry=8))
    def test_oracles_agree_on_arbitrary_q(self, q):
        assert hstar_oracle_interpolation(q) == hstar_oracle_parallelepiped(q)

    @given(qvectors(max_n=4, max_entry=8))
    def test_reflexive_iff_symmetric_hstar(self, q):
        h = hstar_oracle_parallelepiped(q)
        assert is_reflexive(q) == is_symmetric(h)

    @given(qvectors(max_n=4, max_entry=8))
    def test_oracle_volume_property(self, q):
        assert hstar_oracle_parallelepiped(q).volume() == normalized_volume(q)


class TestUnimodal:
    def test_flagship_is_not_unimodal(self):
        assert not is_unimodal([1, 16, 29, 28, 29, 16, 1])

    def test_single_peak(self):
        assert is_unimodal([1, 4, 1])

    def test_payne_dip(self):
        assert not is_unimodal([1, 1, 2, 1, 2, 1, 1])

    def test_trailing_zeros_ignored(self):
        assert is_unimodal([1, 2, 1, 0])
        assert not is_unimodal([1, 2, 1, 2, 0])

    def test_degenerate_sequences(self):
        assert is_unimodal([1])
        assert is_unimodal([0, 0, 0])
        assert is_unimodal([1, 1, 1, 1])

    def test_monotone_sequences(self):
        assert is_unimodal([1, 2, 3])
        assert is_unimodal([3, 2, 1])

    def test_plateau_then_rise_is_not_unimodal(self):
        assert not is_unimodal([1, 1, 2, 1, 1, 2, 1])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=9))
    def test_matches_dip_characterization(self, seq):
        # Unimodal iff no i < j < k with c_i > c_j < c_k (trailing zeros
        # trimmed first).
        trimmed = list(seq)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        dip = any(
            trimmed[i] > trimmed[j] < trimmed[k]
            for i, j, k in combinations(range(len(trimmed)), 3)
        )
        assert is_unimodal(seq) == (not dip)


class TestSymmetric:
    def test_palindrome(self):
        assert is_symmetric([1, 4, 1])

    def test_all_ones(self):
        assert is_symmetric([1, 1, 1, 1])

    def test_untrimmed_palindrome(self):
        assert is_symmetric([1, 2, 1, 0])

    def test_asymmetric(self):
        assert not is_symmetric([1, 2, 2])


class TestPayne:
    def test_smallest_member(self):
        assert payne_qvector(3, 2, 0).entries == (1, 1, 1, 1, 1, 3)

    def test_three_three_one(self):
        assert payne_qvector(3, 3, 1).entries == (1,) * 8 + (3, 3)

    def test_four_two_zero(self):
        assert payne_qvector(4, 2, 0).entries == (1,) * 7 + (4,)

    def test_product_smallest(self):
        assert payne_hstar_product(3, 2, 0).coefficients == (1, 1, 2, 1, 2, 1, 1)

    def test_product_degree(self):
        for s, k, r in ((3, 2, 0), (3, 3, 1), (4, 5, 2), (5, 4, 1)):
            h = payne_hstar_product(s, k, r)
            assert len(h.coefficients) - 1 == (s - 1) * k + k + r

    def test_product_matches_closed_form(self):
        for s in (3, 4, 5):
            for k in range(2, 6):
                for r in range(0, k - 1):
                    q = payne_qvector(s, k, r)
                    assert payne_hstar_product(s, k, r) == hstar_closed_form(q)

    def test_constraints_enforced(self):
        for s, k, r in ((2, 4, 0), (3, 2, 1), (3, 1, 0), (4, 3, -1)):
            with pytest.raises(PayneConstraint):
                payne_qvector(s, k, r)
            with pytest.raises(PayneConstraint):
                payne_hstar_product(s, k, r)

    def test_member_is_always_reflexive(self):
        for s, k, r in ((3, 2, 0), (4, 4, 2), (5, 5, 3)):
            assert is_reflexive(payne_qvector(s, k, r))
