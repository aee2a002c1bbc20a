"""Affine free sums within the q-vector family.

For reflexive p (length n) and q (length m), setting s = 1 + sum(p) and

    y = sort(p_1, ..., p_n, s*q_1, ..., s*q_m)

gives the q-vector of the free sum of the two simplices glued at the apex
vertex.  y is reflexive, h*(y) = h*(p) h*(q), and y is IDP iff p and q are.

Proof.  Scan index c = 0..t-1 of reflexive q (t = 1 + sum(q)) is the box
point with coordinates c/t and {q_k c/t}; its height, their sum, is the
weight w_q(c), and q is IDP iff each c of height >= 2 lies coordinatewise
above some c' of height 1.  Write a scan index of y (1 + sum(y) = s t) as
b = t a + c, 0 <= a < s, 0 <= c < t.  With m_i = s / p_i (m_0 = s, the
apex), b's coordinates are (a mod m_i + c/t) / m_i and {q_k c/t}, so
w_y(b) = w_p(a) + w_q(c), and h* multiplies.  A b' = t a' + c' of height 1
has a' = 0 or c' = 0, and lies below b iff (a' mod m_i, c') <= (a mod m_i, c)
lexicographically and {q_k c'/t} <= {q_k c/t}.  So if p and q are IDP, b of
height >= 2 lies above c (w_q(c) = 1), above a c' below c (w_q(c) >= 2), or,
if c = 0, above t a' for an a' below a.  Conversely, below b = c every
a' mod m_i is 0, so c' <= c lies below c in q; below b = t a every
{q_k c'/t} is 0, so w_q(c') = c'/t < 1 gives c' = 0, and a' lies below a.
"""

from dataclasses import dataclass
from itertools import product

from .core import (
    NotReflexive,
    OracleTooLarge,
    QVector,
    is_reflexive,
    make_qvector,
    support_of,
)

DECOMPOSE_DIMENSION_CAP = 20


@dataclass(frozen=True)
class FreeSumSplit:
    p: QVector
    q: QVector
    s: int  # 1 + sum(p); the scale applied to q's entries
    y: QVector


def compose(p: QVector, q: QVector) -> FreeSumSplit:
    """Free sum of the simplices of two reflexive q-vectors."""
    if not is_reflexive(p):
        raise NotReflexive(f"p = {p} is not reflexive")
    if not is_reflexive(q):
        raise NotReflexive(f"q = {q} is not reflexive")
    s = 1 + sum(p.entries)
    y = make_qvector(list(p.entries) + [s * v for v in q.entries])
    return FreeSumSplit(p=p, q=q, s=s, y=y)


def decompose(y: QVector) -> list:
    """All splits compose(p, q).y == y, ordered by ascending s then p.

    Scans sub-multisets A of y's entries: with s = 1 + sum(A), the
    complement must consist of multiples of s, and both A and the
    complement divided by s must be reflexive.
    """
    if not is_reflexive(y):
        raise NotReflexive(f"y = {y} is not reflexive")
    if y.n > DECOMPOSE_DIMENSION_CAP:
        raise OracleTooLarge(
            f"free-sum decompose of q = {y}: it scans sub-multisets, and "
            f"dimension {y.n} exceeds {DECOMPOSE_DIMENSION_CAP}"
        )
    sup = support_of(y)
    splits = []
    # Choose how many copies of each distinct part go into A.
    for counts in product(*[range(m + 1) for m in sup.multiplicities]):
        if all(c == 0 for c in counts):
            continue
        if all(c == m for c, m in zip(counts, sup.multiplicities)):
            continue
        a_entries = []
        b_entries = []
        for part, mult, c in zip(sup.parts, sup.multiplicities, counts):
            a_entries.extend([part] * c)
            b_entries.extend([part] * (mult - c))
        s = 1 + sum(a_entries)
        if any(v % s != 0 for v in b_entries):
            continue
        p = make_qvector(a_entries)
        q = make_qvector([v // s for v in b_entries])
        if not is_reflexive(p) or not is_reflexive(q):
            continue
        splits.append(FreeSumSplit(p=p, q=q, s=s, y=y))
    splits.sort(key=lambda sp: (sp.s, sp.p.entries, sp.q.entries))
    return splits

