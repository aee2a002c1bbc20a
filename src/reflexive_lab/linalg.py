"""Exact rational linear algebra over fractions.Fraction.

Small dense systems only (k <= 8 or so): one Gauss-Jordan elimination with
determinant tracking, behind a consistency test for A x = b and an integer
adjugate.
"""

from fractions import Fraction


def rref(rows):
    """Gauss-Jordan elimination.  Returns (reduced rows, pivot columns, det).

    `det` is the product of the pivots, with the sign flipped on each row
    swap: the determinant of the leading square block whenever each of its
    columns holds a pivot.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            det = -det
        pv = m[r][c]
        det *= pv
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                # Zero pivot-row entries leave a unchanged; the [M | I]
                # blocks of integer_adjugate are mostly zeros.
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, det


def solve_affine(a_rows, b) -> bool:
    """Whether A x = b has a rational solution: it has none exactly when
    eliminating [A | b] leaves a pivot in the b column, a reduced row
    (0 ... 0 | nonzero)."""
    ncols = len(a_rows[0])
    _, pivots, _ = rref([list(row) + [bv] for row, bv in zip(a_rows, b)])
    return ncols not in pivots


def integer_adjugate(rows):
    """Adjugate and determinant of a square integer matrix, both integral.

    Eliminating [M | I] leaves M^{-1} on the right, and adj(M) = det(M) M^{-1};
    for integer M the entries are integers.  Raises ZeroDivisionError on
    singular input.
    """
    n = len(rows)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    red, pivots, det = rref([list(row) + e for row, e in zip(rows, identity)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    adj = []
    for row in red:
        out = []
        for v in row[n:]:
            scaled = v * det
            if scaled.denominator != 1:
                raise ArithmeticError("adjugate of an integer matrix must be integral")
            out.append(int(scaled))
        adj.append(tuple(out))
    if det.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix must be integral")
    return tuple(adj), int(det)
