import pytest
from hypothesis import given

from conftest import qvectors, reflexive_qvectors
from reflexive_lab import (
    NotReflexive,
    OracleCaps,
    OracleTooLarge,
    enumerate_dilate_points,
    hstar_closed_form,
    idp_check,
    idp_oracle_bruteforce,
    is_unimodal,
    iter_reflexive_qvectors,
    make_qvector,
    necessary_condition,
    normalized_volume,
)
from reflexive_lab.ehrhart import weights
from reflexive_lab.idp import FacetWitness, IdpResult, _key_weights


def carry_scan(q):
    """The facet scan with explicit per-part carry tests, as a reference for
    the height identity: (j, b, height, c) with c None where nothing splits."""
    entries = q.entries
    out = []
    for j0, qj in enumerate(entries):
        if qj == 1 or qj in entries[:j0]:
            continue
        t_factor = (normalized_volume(q) - qj) // qj
        heights = [b * t_factor - sum((qi * b) // qj for qi in entries) + b
                   for b in range(qj)]
        others = sorted(set(entries) - {qj})
        for b in range(1, qj):
            if heights[b] < 2:
                continue
            found = None
            for c in range(1, b):
                if heights[c] == 1 and all(
                    (qi * b) // qj - (qi * c) // qj == (qi * (b - c)) // qj
                    for qi in others
                ):
                    found = c
                    break
            out.append((j0 + 1, b, heights[b], found))
    return out


def tuple_sumset_oracle(q):
    """The IDP oracle with m-fold sumsets of coordinate tuples, as a reference
    for the integer-keyed one: (is_idp, witness dilate, witness point)."""
    base = enumerate_dilate_points(q, 1)
    sums = set(base)
    for m in range(2, q.n + 1):
        sums = {tuple(a + b for a, b in zip(p, v)) for p in sums for v in base}
        for point in enumerate_dilate_points(q, m):
            if point not in sums:
                return False, m, point
    return True, None, None


def oracle_triple(res):
    return res.is_idp, res.witness_dilate, res.witness_point


class TestIdpCheck:
    def test_all_ones_is_idp(self):
        assert idp_check(make_qvector([1, 1, 1])).is_idp

    def test_witness_vector_fails(self):
        res = idp_check(make_qvector([2, 2, 15, 20, 20]))
        assert not res.is_idp
        assert res.witness.facet_j == 3
        assert res.witness.b == 8
        assert res.witness.height == 2

    def test_two_three_is_idp(self):
        assert idp_check(make_qvector([2, 3])).is_idp

    def test_flagship_vector_fails(self):
        res = idp_check(make_qvector([3, 20, 24, 24, 24, 24]))
        assert not res.is_idp
        assert (res.witness.facet_j, res.witness.b, res.witness.height) == (2, 7, 2)

    def test_smallest_payne_fails(self):
        assert not idp_check(make_qvector([1, 1, 1, 1, 1, 3])).is_idp

    def test_requires_reflexive(self):
        with pytest.raises(NotReflexive):
            idp_check(make_qvector([2, 2]))

    def test_result_is_truthy_on_success(self):
        assert bool(idp_check(make_qvector([1, 2])))
        assert not bool(idp_check(make_qvector([1, 1, 1, 1, 1, 3])))

    @given(reflexive_qvectors())
    def test_idp_implies_necessary(self, q):
        if idp_check(q).is_idp:
            assert necessary_condition(q)

    @given(reflexive_qvectors())
    def test_unit_residue_reaches_height_one_on_idp_facets(self, q):
        # On an IDP simplex, whenever some residue b >= 2 needs splitting,
        # the residue c = 1 itself always sits at height exactly 1.
        if not idp_check(q).is_idp:
            return
        s = normalized_volume(q)
        seen = set()
        for j0, qj in enumerate(q.entries):
            if qj < 2 or qj in seen:
                continue
            seen.add(qj)
            heights = weights(q, range(0, s, s // qj))
            if any(heights[b] >= 2 for b in range(2, qj)):
                assert heights[1] == 1

    def test_height_identity_matches_carry_scan(self):
        grid = list(iter_reflexive_qvectors(6, 60))
        assert len(grid) == 636
        for q in grid:
            records = carry_scan(q)
            failures = [r for r in records if r[3] is None]
            expected = (
                IdpResult(False, FacetWitness(*failures[0][:3])) if failures
                else IdpResult(True)
            )
            assert idp_check(q) == expected, q


class TestNecessaryCondition:
    def test_witness_vector_passes(self):
        assert necessary_condition(make_qvector([2, 2, 15, 20, 20]))

    def test_smallest_payne_fails(self):
        assert not necessary_condition(make_qvector([1, 1, 1, 1, 1, 3]))

    def test_two_three_passes(self):
        assert necessary_condition(make_qvector([2, 3]))

    def test_not_sufficient(self):
        # The point of the witness vector: necessary holds, IDP fails.
        q = make_qvector([2, 2, 15, 20, 20])
        assert necessary_condition(q)
        assert not idp_check(q).is_idp

    @given(reflexive_qvectors())
    def test_necessary_follows_from_idp_never_conversely_assumed(self, q):
        # One direction only: IDP => necessary.  (The converse is refuted
        # by the witness vector above.)
        if not necessary_condition(q):
            assert not idp_check(q).is_idp


class TestBruteForceOracle:
    def test_all_ones(self):
        assert idp_oracle_bruteforce(make_qvector([1, 1, 1])).is_idp

    def test_witness_vector_point(self):
        res = idp_oracle_bruteforce(make_qvector([2, 2, 15, 20, 20]))
        assert not res.is_idp
        assert res.witness_dilate == 2
        assert res.witness_point == (-1, -1, -8, -10, -10)

    def test_smallest_payne(self):
        assert not idp_oracle_bruteforce(make_qvector([1, 1, 1, 1, 1, 3])).is_idp

    def test_caps_enforced(self):
        with pytest.raises(OracleTooLarge):
            idp_oracle_bruteforce(make_qvector([1] * 7))
        with pytest.raises(OracleTooLarge):
            idp_oracle_bruteforce(make_qvector([30, 31]))

    @given(reflexive_qvectors())
    def test_matches_facet_scan(self, q):
        assert idp_oracle_bruteforce(q).is_idp == idp_check(q).is_idp

    def test_integer_keys_match_tuple_sumsets(self):
        # Every reflexive q with n <= 5 and sum <= 40, and every reflexive q
        # with n = 6 at the largest sum the default caps allow (59).
        grid = list(iter_reflexive_qvectors(5, 40))
        grid += [q for q in iter_reflexive_qvectors(6, 60)
                 if q.n == 6 and sum(q.entries) == 59]
        assert len(grid) == 150 + 123
        for q in grid:
            assert oracle_triple(idp_oracle_bruteforce(q)) == tuple_sumset_oracle(q), q

    @given(qvectors(max_n=3, max_entry=5))
    def test_point_keys_injective_up_to_dilate_n(self, q):
        weights = _key_weights(q)
        for m in range(1, q.n + 1):
            points = enumerate_dilate_points(q, m)
            keys = {sum(c * w for c, w in zip(p, weights)) for p in points}
            assert len(keys) == len(points)

    def test_integer_keys_beyond_default_caps(self):
        q = make_qvector([1, 3, 6, 22, 33])
        res = idp_oracle_bruteforce(q, OracleCaps(7, 200))
        assert oracle_triple(res) == tuple_sumset_oracle(q)
        assert oracle_triple(res) == (False, 2, (0, -2, -4, -15, -22))


def box_group_idp(lam, v):
    """Whether Delta_(1, lam) is IDP over its box group Z/v, by coordinatewise
    dominance: box point b has coordinates b / v and (lam_i b mod v) / v, its
    height is their sum, and b at height >= 2 needs a c at height 1 whose
    coordinates are all at most b's (c < b covers the first one)."""
    coords = [[(x * b) % v for x in lam] for b in range(v)]
    heights = [(b + sum(row)) // v for b, row in enumerate(coords)]
    return all(
        any(
            heights[c] == 1 and all(x <= y for x, y in zip(coords[c], coords[b]))
            for c in range(1, b)
        )
        for b in range(1, v)
        if heights[b] >= 2
    )


def residue_idp(q, drop_one=False):
    """IDP of q from its residue partitions lam_v, v a distinct part >= 2.
    With drop_one, each lam_v loses its first residue: a deliberately wrong
    variant that the census must tell apart."""
    for v in set(q.entries) - {1}:
        lam = [qi % v for qi in q.entries if qi % v]
        if not box_group_idp(lam[1:] if drop_one else lam, v):
            return False
    return True


class TestResiduePartitions:
    """IDP by residue partitions, a route that shares no code with idp_check.

    Lemma.  Let q satisfy the necessary condition, let v >= 2 be one of its
    parts, and let lam_v be the nonzero residues q_i mod v.  Then q is IDP
    exactly when Delta_(1, lam_v) is IDP over its box group Z/v for every
    such v.  (Delta_(1, lam_v) need not be reflexive.)

    Proof.  Write q_i = v floor(q_i / v) + rho_i.  The necessary condition
    at v reads 1 + sum(rho) = v, so sum(lam_v) = v - 1 and, with
    s = 1 + sum(q) = v (1 + sum_i floor(q_i / v)), facet v's height is

        b s / v - sum_i floor(q_i b / v) = b - sum_i floor(rho_i b / v)
                                         = (b + sum_i (lam_i b mod v)) / v,

    the sum of the coordinates b / v and (lam_i b mod v) / v of box point b
    of Delta_(1, lam_v).  For c < b the first coordinates add exactly and
    (lam_i b mod v) <= (lam_i c mod v) + (lam_i (b - c) mod v), with equality
    iff (lam_i c mod v) <= (lam_i b mod v).  So "height(c) == 1 and
    height(b - c) == height(b) - 1", idp_check's split on facet v, says that
    c is a height-1 box point below b, which is the box-group IDP criterion
    of Delta_(1, lam_v).  idp_check scans exactly the distinct parts >= 2,
    one facet each, so its verdict is the conjunction of these criteria.
    """

    @pytest.fixture(scope="class")
    def grid(self):
        grid = [q for q in iter_reflexive_qvectors(7, 120) if necessary_condition(q)]
        assert len(grid) == 638
        return grid

    def test_agrees_with_facet_scan(self, grid):
        for q in grid:
            assert residue_idp(q) == idp_check(q).is_idp, q

    def test_dropping_a_residue_disagrees(self, grid):
        wrong = [q for q in grid if residue_idp(q, drop_one=True) != idp_check(q).is_idp]
        assert len(wrong) == 45


class TestEndToEndFlagshipStory:
    def test_flagship_vector_full_classification(self):
        # One vector exhibits the whole phenomenon: reflexive, passes the
        # necessary filter, fails IDP, and has a non-unimodal symmetric h*.
        q = make_qvector([3, 20, 24, 24, 24, 24])
        assert necessary_condition(q)
        assert not idp_check(q).is_idp
        h = hstar_closed_form(q)
        assert not is_unimodal(h)
        assert h.coefficients == (1, 16, 29, 28, 29, 16, 1)
