import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflexive_lab import (
    NotReflexive,
    OracleTooLarge,
    compose,
    decompose,
    hstar_closed_form,
    idp_check,
    is_reflexive,
    is_unimodal,
    iter_reflexive_qvectors,
    make_qvector,
    support_of,
)

SMALL_REFLEXIVE = [q for q in iter_reflexive_qvectors(4, 20) if max(q.entries) <= 6]


def hstar_product(p, q):
    """Coefficients of the polynomial product h*(p) h*(q)."""
    hp = hstar_closed_form(p).coefficients
    hq = hstar_closed_form(q).coefficients
    product = [0] * (len(hp) + len(hq) - 1)
    for i, a in enumerate(hp):
        for j, b in enumerate(hq):
            product[i + j] += a * b
    return product


class TestCompose:
    def test_self_composition(self):
        p = make_qvector([1, 1, 1, 1, 1, 3])
        split = compose(p, p)
        assert split.s == 9
        assert split.y.entries == (1, 1, 1, 1, 1, 3, 9, 9, 9, 9, 9, 27)

    def test_smallest(self):
        split = compose(make_qvector([1]), make_qvector([1]))
        assert split.s == 2
        assert split.y.entries == (1, 2)

    def test_mixed_sizes(self):
        split = compose(make_qvector([1, 1]), make_qvector([1, 1, 1]))
        assert split.s == 3
        assert split.y.entries == (1, 1, 3, 3, 3)

    def test_requires_reflexive_inputs(self):
        with pytest.raises(NotReflexive):
            compose(make_qvector([2, 2]), make_qvector([1]))
        with pytest.raises(NotReflexive):
            compose(make_qvector([1]), make_qvector([2, 2]))

    @given(st.sampled_from(SMALL_REFLEXIVE), st.sampled_from(SMALL_REFLEXIVE))
    def test_composition_is_reflexive(self, p, q):
        assert is_reflexive(compose(p, q).y)

    @given(st.sampled_from(SMALL_REFLEXIVE), st.sampled_from(SMALL_REFLEXIVE))
    def test_hstar_multiplies(self, p, q):
        split = compose(p, q)
        assert list(hstar_closed_form(split.y).coefficients) == hstar_product(p, q)


class TestDecompose:
    def test_self_composition_found(self):
        y = make_qvector([1, 1, 1, 1, 1, 3, 9, 9, 9, 9, 9, 27])
        splits = decompose(y)
        target = (
            (1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 3),
            9,
        )
        assert any(
            (s.p.entries, s.q.entries, s.s) == target for s in splits
        )

    def test_simple_split(self):
        splits = decompose(make_qvector([1, 1, 3]))
        assert len(splits) == 1
        assert splits[0].p.entries == (1, 1)
        assert splits[0].q.entries == (1,)
        assert splits[0].s == 3

    def test_indecomposable(self):
        assert decompose(make_qvector([2, 2, 5])) == []

    def test_requires_reflexive(self):
        with pytest.raises(NotReflexive):
            decompose(make_qvector([2, 2]))

    def test_dimension_cap(self):
        with pytest.raises(OracleTooLarge):
            decompose(make_qvector([1] * 21))

    def test_ordered_by_scale(self):
        y = compose(make_qvector([1]), make_qvector([1, 2])).y  # (1,2,4)
        splits = decompose(y)
        assert [s.s for s in splits] == sorted(s.s for s in splits)

    @given(st.sampled_from(SMALL_REFLEXIVE), st.sampled_from(SMALL_REFLEXIVE))
    def test_round_trip(self, p, q):
        split = compose(p, q)
        found = decompose(split.y)
        assert any(
            (s.p, s.q, s.s) == (split.p, split.q, split.s) for s in found
        )

    @given(st.sampled_from(SMALL_REFLEXIVE), st.sampled_from(SMALL_REFLEXIVE))
    def test_idp_transfer(self, p, q):
        # IDP with unimodal h* is preserved by composition.
        if not (idp_check(p).is_idp and idp_check(q).is_idp):
            return
        hp, hq = hstar_closed_form(p), hstar_closed_form(q)
        if not (is_unimodal(hp) and is_unimodal(hq)):
            return
        y = compose(p, q).y
        assert idp_check(y).is_idp
        assert is_unimodal(hstar_closed_form(y))

    @given(st.sampled_from(SMALL_REFLEXIVE), st.sampled_from(SMALL_REFLEXIVE))
    def test_facet_necessity(self, p, q):
        # If the composition is IDP, the first summand must be too.
        y = compose(p, q).y
        if idp_check(y).is_idp:
            assert idp_check(p).is_idp


class TestTransfersOnCensus:
    def test_idp_both_ways_and_hstar_product(self):
        # The two transfers proved in the freesum docstring, on every split
        # of every reflexive y with n <= 7 and sum <= 100.
        ys = list(iter_reflexive_qvectors(7, 100))
        splits = [split for y in ys for split in decompose(y)]
        assert (len(ys), len(splits)) == (2705, 1585)
        for split in splits:
            p, q, y = split.p, split.q, split.y
            assert idp_check(y).is_idp == (idp_check(p).is_idp and idp_check(q).is_idp), y
            assert list(hstar_closed_form(y).coefficients) == hstar_product(p, q), y


def _divisor_chain_split(q):
    """(head, 1^(x_k), r_k) when the support r_1 < ... < r_k has k >= 2,
    every part dividing r_k, and r_k == 1 + sum_(i<k) x_i r_i; else None."""
    sup = support_of(q)
    r_k = sup.parts[-1]
    head = tuple(r for r, x in zip(sup.parts[:-1], sup.multiplicities[:-1]) for _ in range(x))
    if not head or any(r_k % r for r in head) or r_k != 1 + sum(head):
        return None
    return head, (1,) * sup.multiplicities[-1], r_k


class TestDivisorChainSplit:
    def test_lemma_matches_decompose(self):
        # A split at s = r_k leaves only the copies of r_k outside p, so it
        # exists exactly when s = 1 + sum(head) = r_k and the head is
        # reflexive, that is, when every head part divides r_k.
        big = make_qvector([1] * 5 + [3] + [9] * 5 + [27])  # 27 != 1 + 53
        applies = 0
        for q in SMALL_REFLEXIVE + [big]:
            split = _divisor_chain_split(q)
            top = [
                (s.p.entries, s.q.entries, s.s)
                for s in decompose(q)
                if s.s == q.entries[-1]
            ]
            assert top == ([split] if split else []), q
            applies += split is not None
        assert _divisor_chain_split(make_qvector([1, 1, 3])) == ((1, 1), (1,), 3)
        assert _divisor_chain_split(big) is None
        assert applies == 12
