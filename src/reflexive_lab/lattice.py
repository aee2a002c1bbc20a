"""Exact lattice-point enumeration for the simplices defined by a q-vector.

Both point sets the oracles need are cut out by one integer system.  With
s = 1 + sum(q), write a point of the cone over the simplex as (h, x): height
h and ambient coordinates x in Z^n.  Its barycentric weights with respect to
the cone generators (1, -q), (1, e_1), ..., (1, e_n), multiplied by s, are

    s * lam_0 = a,    s * lam_i = s * x_i + a * q_i,    where a = h - sum(x).

* The dilate t * Delta is the slice h = t with every s * lam_j >= 0.
* The half-open fundamental parallelepiped is 0 <= s * lam_j <= s - 1 for
  every j, at heights h = 0..n.

Once the prefix (h, x_1, ..., x_(n-1)) is fixed, every inequality bounds the
last coordinate alone, so `_interval` solves the system for x_n as an exact
integer interval and `_scan` walks a bounding box of prefixes, counting or
listing each interval.  Small boxes run in plain Python; larger ones run in
numpy chunks whose leading prefix values stay Python ints and whose trailing
values are meshgrid columns.  The parallelepiped oracle first checks the
system against an independently computed integer adjugate of the cone
matrix.  Nothing here assumes reflexivity.
"""

from itertools import product
from math import prod

import numpy as np

from .core import InternalInconsistency, QVector, SimplexGeometry
from .linalg import integer_adjugate

# Rows per numpy chunk; keeps peak memory around tens of MB.
_CHUNK_ROWS = 1 << 19
# Below this many prefix combinations the plain python path is faster.
_PYTHON_BOX_LIMIT = 2048


def _prefix_chunks(ranges):
    """Yield (leading ints, trailing meshgrid columns) in lex order.

    The last range is always a trailing column, so every chunk is vectorized.
    """
    split = len(ranges) - 1
    rows = len(ranges[split])
    while split > 0 and rows * len(ranges[split - 1]) <= _CHUNK_ROWS:
        split -= 1
        rows *= len(ranges[split])
    mesh = np.meshgrid(
        *[np.asarray(r, dtype=np.int64) for r in ranges[split:]], indexing="ij"
    )
    trailing = [m.reshape(-1) for m in mesh]
    for lead in product(*ranges[:split]):
        yield lead, trailing


def _interval(q, s, upper, prefix):
    """Exact feasible [lo, hi] of x_n for the prefix (h, x_1, ..., x_(n-1)).

    Prefix values are Python ints, or Python ints followed by equal-length
    int64 columns (then lo and hi are columns too).  `upper` caps every
    s * lam_j: None for a dilate, s - 1 for the half-open parallelepiped.
    """
    vectorized = isinstance(prefix[-1], np.ndarray)
    most, least = (np.maximum, np.minimum) if vectorized else (max, min)
    # rest = h - sum(prefix x); the final a is rest - x_n.
    rest = prefix[0]
    a_lo, a_hi = 0, upper  # bounds on a from lam_0, ..., lam_(n-1)
    for x, qi in zip(prefix[1:], q):
        rest = rest - x
        a_lo = most(a_lo, -((s * x) // qi))
        if upper is not None:
            a_hi = least(a_hi, (upper - s * x) // qi)
    # s * lam_n = (s - q_n) * x_n + rest * q_n
    qn = q[-1]
    d = s - qn
    lo, hi = -((rest * qn) // d), rest - a_lo
    if upper is not None:
        lo = most(lo, rest - a_hi)
        hi = least(hi, (upper - rest * qn) // d)
    return lo, hi


def _scan(q, prefix_ranges, upper, count_only):
    """Count, or list in lex order, the points (prefix, x_n) of the system."""
    s = 1 + sum(q)
    total, points = 0, []
    if prod(len(r) for r in prefix_ranges) <= _PYTHON_BOX_LIMIT:
        for prefix in product(*prefix_ranges):
            lo, hi = _interval(q, s, upper, prefix)
            if hi < lo:
                continue
            if count_only:
                total += hi - lo + 1
            else:
                points.extend(prefix + (x,) for x in range(lo, hi + 1))
        return total if count_only else points
    for lead, trailing in _prefix_chunks(prefix_ranges):
        lo, hi = _interval(q, s, upper, (*lead, *trailing))
        reps = np.maximum(hi - lo + 1, 0)
        if count_only:
            total += int(reps.sum())
            continue
        mask = reps > 0
        reps = reps[mask]
        size = int(reps.sum())
        if size == 0:
            continue
        # Expand each feasible prefix into its x_n interval, preserving order.
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        offsets = np.arange(size, dtype=np.int64) - starts
        cols = [np.full(size, v, dtype=np.int64) for v in lead]
        cols += [np.repeat(col[mask], reps) for col in trailing]
        cols.append(np.repeat(lo[mask], reps) + offsets)
        points.extend(map(tuple, np.stack(cols, axis=1).tolist()))
    return total if count_only else points


def _dilate_ranges(q: QVector, t: int):
    """Prefix box at height t: x_i in [-t * q_i, t] for i < n."""
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    return [range(t, t + 1)] + [range(-t * qi, t + 1) for qi in q.entries[:-1]]


def count_dilate_points(q: QVector, t: int) -> int:
    """#(t * Delta cap Z^n), exactly."""
    return _scan(q.entries, _dilate_ranges(q, t), None, True)


def enumerate_dilate_points(q: QVector, t: int):
    """All points of t * Delta cap Z^n as tuples, lexicographically sorted."""
    return [p[1:] for p in _scan(q.entries, _dilate_ranges(q, t), None, False)]


def _cone_matrix(geom: SimplexGeometry):
    """Columns (1, apex), (1, e_1), ..., (1, e_n); apex weight is lam_0."""
    n = geom.qvector.n
    verts = [geom.vertices[-1]] + list(geom.vertices[:-1])
    rows = [[1] * (n + 1)]
    for r in range(n):
        rows.append([v[r] for v in verts])
    return rows


def _barycentric_rows(q: QVector):
    """Rows of the system in the module docstring: s * lam as a map of (h, x)."""
    n = q.n
    s = 1 + sum(q.entries)
    rows = [(1,) + (-1,) * n]
    for i, qi in enumerate(q.entries):
        rows.append((qi,) + tuple(s - qi if k == i else -qi for k in range(n)))
    return tuple(rows)


def fundamental_parallelepiped_points(q: QVector):
    """Integer points of the half-open parallelepiped, as (1+n)-tuples.

    Coordinate 0 is the height.  Sorted by height, then lexicographically.
    Raises InternalInconsistency unless the sign-normalised adjugate of the
    cone matrix is exactly the barycentric system the scan solves.
    """
    geom = SimplexGeometry.from_qvector(q)
    n = q.n
    s = geom.s_total
    adj, det = integer_adjugate(_cone_matrix(geom))
    if det < 0:
        det = -det
        adj = tuple(tuple(-v for v in row) for row in adj)
    if det != s or adj != _barycentric_rows(q):
        raise InternalInconsistency(
            f"cone adjugate {adj} with determinant {det} differs from the "
            f"barycentric system of q = {q} (1 + sum(q) = {s})"
        )
    # Box: heights 0..n; coordinate j in (-q_j, 1), lenient integer bounds.
    # The last coordinate has the widest range (entries are sorted), so it
    # is the one replaced by interval arithmetic.
    prefix_ranges = [range(0, n + 1)] + [range(-qj, 2) for qj in q.entries[:-1]]
    points = _scan(q.entries, prefix_ranges, s - 1, False)
    if len(points) != s:
        raise InternalInconsistency(
            f"parallelepiped holds {len(points)} lattice points, expected {s}"
        )
    return points


def fundamental_parallelepiped_histogram(q: QVector):
    """Histogram of parallelepiped point heights, length n + 1."""
    hist = [0] * (q.n + 1)
    for p in fundamental_parallelepiped_points(q):
        hist[p[0]] += 1
    return hist
