"""Exact lattice-point enumeration for the simplices defined by a q-vector.

Both point sets the oracles need are cut out by one integer system.  With
s = 1 + sum(q), write a point of the cone over the simplex as (h, x): height
h and ambient coordinates x in Z^n.  Its barycentric weights with respect to
the cone generators (1, -q), (1, e_1), ..., (1, e_n), multiplied by s, are

    s * lam_0 = a,    s * lam_i = s * x_i + a * q_i,    where a = h - sum(x).

* The dilate t * Delta is the slice h = t with every s * lam_j >= 0.
* The half-open fundamental parallelepiped is 0 <= s * lam_j <= s - 1 for
  every j, at heights h = 0..n.

The dilate is scanned level by level (`_dilate_scan`): a numpy frontier of
prefixes (x_1, ..., x_k) grows one coordinate at a time, each bounded by the
exact projection of t * Delta onto the prefix, so the work scales with the
points listed rather than with a bounding box.  The frontier is int64 while
t * s * s, which bounds every intermediate, fits; past that it holds Python
ints, so no bound wraps.  The parallelepiped keeps a box scan: once the
prefix (h, x_1, ..., x_(n-1)) is fixed, every inequality bounds the last
coordinate alone, so `_interval` solves the system for x_n as an exact
integer interval and `_scan` walks a bounding box of prefixes, listing each
interval.  Small boxes run in plain Python; larger ones run in
numpy chunks of at most `_CHUNK_ROWS` prefixes (or one whole last range,
if that is longer), whose leading prefix values stay Python ints and whose
trailing values are meshgrid columns.  The
parallelepiped oracle first checks the system against an independently
computed integer adjugate of the cone matrix.  Nothing here assumes
reflexivity.

numpy is imported inside the scans, so importing the package, and any
command that runs no numpy scan, does not load it.
"""

from itertools import product
from math import prod

from .core import InternalInconsistency, QVector
from .linalg import integer_adjugate

# Prefixes per numpy chunk.  A chunk's int64 columns then take a few MB at
# most, and on the acceptance box this was the fastest size measured
# (2^11 to 2^19 rows).
_CHUNK_ROWS = 1 << 14
# Below this many prefix combinations the plain python path is faster.
_PYTHON_BOX_LIMIT = 2048
# The dilate frontier is int64 while t * s * s stays below this (2x headroom).
_INT64_LIMIT = 2**62


def _prefix_chunks(ranges):
    """Yield (leading ints, trailing meshgrid columns) in lex order.

    The last range is always a trailing column, so every chunk is vectorized.
    """
    import numpy as np

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


def _interval(q, s, prefix):
    """Exact [lo, hi] of x_n in the parallelepiped, given (h, x_1, ..., x_(n-1)).

    Prefix values are Python ints, or Python ints followed by equal-length
    int64 columns (then lo and hi are columns too).  Every s * lam_j lies in
    [0, s - 1].
    """
    if isinstance(prefix[-1], int):
        most, least = max, min
    else:
        import numpy as np

        most, least = np.maximum, np.minimum
    # rest = h - sum(prefix x); the final a is rest - x_n.
    rest = prefix[0]
    a_lo, a_hi = 0, s - 1  # bounds on a from lam_0, ..., lam_(n-1)
    for x, qi in zip(prefix[1:], q):
        rest = rest - x
        a_lo = most(a_lo, -((s * x) // qi))
        a_hi = least(a_hi, (s - 1 - s * x) // qi)
    # s * lam_n = (s - q_n) * x_n + rest * q_n
    qn = q[-1]
    d = s - qn
    lo = most(-((rest * qn) // d), rest - a_hi)
    hi = least(rest - a_lo, (s - 1 - rest * qn) // d)
    return lo, hi


def _scan(q, prefix_ranges):
    """List in lex order the parallelepiped points (prefix, x_n)."""
    s = 1 + sum(q)
    points = []
    if prod(len(r) for r in prefix_ranges) <= _PYTHON_BOX_LIMIT:
        for prefix in product(*prefix_ranges):
            lo, hi = _interval(q, s, prefix)
            if hi < lo:
                continue
            points.extend(prefix + (x,) for x in range(lo, hi + 1))
        return points
    import numpy as np

    for lead, trailing in _prefix_chunks(prefix_ranges):
        lo, hi = _interval(q, s, (*lead, *trailing))
        reps = np.maximum(hi - lo + 1, 0)
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
    return points


def _dilate_scan(q, t, count_only):
    """Count, or list in lex order as an int64 array, the points of t * Delta.

    The frontier holds every prefix (x_1, ..., x_(k-1)) that survives the
    projection bounds, with rest = t - sum(x) and
    a_lo = max(0, max_i ceil(-s * x_i / q_i)), the least a the prefix allows.
    With T_k = sum_{i > k} q_i, the integer points of the projection of
    t * Delta onto (x_1, ..., x_k) have

        ceil(-rest * q_k / (s - T_(k-1))) <= x_k <= rest - ceil(a_lo * (s - T_k) / s),

    from lam_0, lam_k >= 0 and lam_0 + lam_1 + ... + lam_k <= t.  At k = n
    (T_n = 0) they are the bounds lam_0, lam_n >= 0 put on x_n alone, so the
    last level is exact and the earlier ones only prune.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    import numpy as np

    s = 1 + sum(q)
    # Every value below is at most t * s * s in magnitude, since the points
    # of t * Delta have -t * q_i <= x_i <= t; past int64, use Python ints.
    dtype = np.int64 if t * s * s < _INT64_LIMIT else object
    prefixes = np.zeros((1, 0), dtype=dtype)
    rest = np.full(1, t, dtype=dtype)
    a_lo = np.zeros(1, dtype=dtype)
    tail = s - 1  # T_(k-1)
    for k, qk in enumerate(q, start=1):
        lo = -((rest * qk) // (s - tail))
        tail -= qk
        hi = rest + (-a_lo * (s - tail)) // s
        reps = np.maximum(hi - lo + 1, 0)
        if count_only and k == len(q):
            # Each interval holds at most t * s + 1 points; sum exactly when
            # the int64 total could wrap.
            exact = reps.size * (t * s + 1) >= 2**63
            return int(reps.sum(dtype=object if exact else None))
        # Expand each prefix into its x_k interval, preserving lex order.
        reps = reps.astype(np.int64, copy=False)
        ends = np.cumsum(reps)
        x = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(lo - ends + reps, reps)
        prefixes = np.column_stack((np.repeat(prefixes, reps, axis=0), x))
        rest = np.repeat(rest, reps) - x
        a_lo = np.maximum(np.repeat(a_lo, reps), -((s * x) // qk))
    return prefixes


def count_dilate_points(q: QVector, t: int) -> int:
    """#(t * Delta cap Z^n), exactly."""
    return _dilate_scan(q.entries, t, True)


def enumerate_dilate_points(q: QVector, t: int):
    """All points of t * Delta cap Z^n as tuples, lexicographically sorted."""
    return list(map(tuple, _dilate_scan(q.entries, t, False).tolist()))


def _cone_matrix(q: QVector):
    """Columns (1, -q), (1, e_1), ..., (1, e_n); the apex weight is lam_0."""
    n = q.n
    rows = [[1] * (n + 1)]
    for r, qr in enumerate(q.entries):
        rows.append([-qr] + [1 if i == r else 0 for i in range(n)])
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
    n = q.n
    s = 1 + sum(q.entries)
    adj, det = integer_adjugate(_cone_matrix(q))
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
    points = _scan(q.entries, prefix_ranges)
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
