"""Integer decomposition property (IDP) decisions for reflexive q-vectors.

The fast check scans each facet j with q_j >= 2.  With s = 1 + sum(q), which
q_j divides for reflexive q, scan index b = 0..q_j - 1 of facet j has the
closed form's weight at b s / q_j as its height:

    height_j(b) = b s / q_j - sum_i floor(q_i b / q_j).

The simplex is IDP iff every b with height_j(b) >= 2 splits as
b = c + (b - c) with height_j(c) == 1 and no floor carrying:
floor(q_i b / q_j) == floor(q_i c / q_j) + floor(q_i (b - c) / q_j) for all i.
The first term of the height is additive in b and each floor is
superadditive, so height_j(b) <= height_j(c) + height_j(b - c), with
equality exactly when no floor carries.  Given height_j(c) == 1, c therefore
splits b iff height_j(b - c) == height_j(b) - 1.

The brute-force oracle instead enumerates the lattice points of the m-th
dilates directly and compares them with iterated sumsets of the points of
the first dilate.  Each point c is keyed by the integer sum_i c_i * R^i with
R = 2 n s + 1 (s = 1 + sum(q)).  Every coordinate of a point of m * Delta with
m <= n lies in [-m q_i, m], so |c_i| <= n (s - 1) < R / 2; balanced base-R
digits are unique, so the key is injective on those dilates, and since it is
linear the sumsets are built by adding keys.
"""

from dataclasses import dataclass
from operator import mul

from .core import InternalInconsistency, NotReflexive, QVector, is_reflexive, normalized_volume
from .ehrhart import OracleCaps, weights
from .lattice import enumerate_dilate_points

IDP_ORACLE_CAPS = OracleCaps(max_dimension=6, max_entry_sum=60)


@dataclass(frozen=True)
class FacetWitness:
    """A scan index b on facet j whose height >= 2 admits no splitting c."""

    facet_j: int  # 1-based position in the sorted q-vector
    b: int
    height: int

    def to_json_dict(self):
        return {"facet_j": self.facet_j, "b": self.b, "height": self.height}


@dataclass(frozen=True)
class IdpResult:
    is_idp: bool
    witness: FacetWitness = None

    def __bool__(self) -> bool:
        return self.is_idp


def idp_check(q: QVector) -> IdpResult:
    """Facet scan over the distinct parts; the witness has the smallest j,
    then the smallest b."""
    if not is_reflexive(q):
        raise NotReflexive(f"q = {q} is not reflexive")
    s = normalized_volume(q)
    for qj in dict.fromkeys(q.entries):  # a repeated part repeats its facet's conditions
        if qj == 1:
            continue
        j = q.entries.index(qj) + 1
        if s % qj:
            raise InternalInconsistency(f"facet {j} of q={q}: {qj} does not divide {s}")
        heights = weights(q, range(0, s, s // qj))
        for b in range(1, qj):
            height = heights[b]
            if height < 2:
                continue
            for c in range(1, b):
                if heights[c] == 1 and heights[b - c] == height - 1:
                    break
            else:
                return IdpResult(False, FacetWitness(j, b, height))
    return IdpResult(True, None)


def necessary_condition(q: QVector) -> bool:
    """1 + sum_i (q_i mod q_j) == q_j for every j.

    Necessary for IDP together with reflexivity; implies reflexivity but is
    not sufficient for IDP.  (The j-th term of the sum is zero, so summing
    over all i equals summing over i != j.)
    """
    entries = q.entries
    return all(1 + sum(qi % v for qi in entries) == v for v in set(entries))


@dataclass(frozen=True)
class IdpOracleResult:
    is_idp: bool
    witness_dilate: int = None
    witness_point: tuple = None

    def __bool__(self) -> bool:
        return self.is_idp


def _key_weights(q: QVector):
    """R^i for i < n, R = 2 n s + 1: the weights of the point key (module
    docstring), injective on m * Delta for m <= n."""
    radix = 2 * q.n * normalized_volume(q) + 1
    return [radix**i for i in range(q.n)]


def idp_oracle_bruteforce(q: QVector, caps: OracleCaps = None) -> IdpOracleResult:
    """Compare m-th dilate points with m-fold sumsets of first-dilate points.

    Heights of parallelepiped points are at most n, so decomposability of the
    dilates up to m = n settles the property at the tested sizes.  The witness
    is the lexicographically first undecomposable point at the smallest m.
    """
    caps = caps or IDP_ORACLE_CAPS
    caps.check(q, "IDP oracle")
    weights = _key_weights(q)

    def key(point):
        return sum(map(mul, point, weights))

    base = [key(p) for p in enumerate_dilate_points(q, 1)]
    sums = set(base)
    for m in range(2, q.n + 1):
        sums = {p + v for p in sums for v in base}
        for point in enumerate_dilate_points(q, m):
            if key(point) not in sums:
                return IdpOracleResult(False, witness_dilate=m, witness_point=point)
    return IdpOracleResult(True)
