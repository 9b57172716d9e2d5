"""Linear algebra over a field given only by its zero, its one and its
arithmetic: a determinant, a kernel and a solve, for Fraction entries or the
test oracles' Q(theta) elements alike.  Kernels and solves run
`matrices.rref`.

No engine module imports this one.  It stays because the benchmark's tracer
wraps `field_*`.
"""

from .matrices import kernel_rows, solve_rows


def field_solve_columns(a, rhs, zero):
    """Solve A @ X = RHS over a field, lists-of-lists; None if inconsistent."""
    return solve_rows(a, rhs, zero)


def field_kernel(a, zero, one):
    """Right null space basis over a field, as a list of coordinate lists."""
    return kernel_rows(a, zero, one)


def field_det(a, zero):
    """Determinant over a field, lists-of-lists, square."""
    n = len(a)
    m = [list(row) for row in a]
    flip = False
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != zero), None)
        if pivot is None:
            return zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            flip = not flip
        p = m[col][col]
        pivots.append(p)
        inv = 1 / p
        for r in range(col + 1, n):
            if m[r][col] != zero:
                f = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] = m[r][cc] - f * m[col][cc]
    det = pivots[0]
    for p in pivots[1:]:
        det = det * p
    return -det if flip else det
