"""Reference computations the tests compare the engine against, by the
direct routes the engine does not take.

`direct_table` forms the `det_table` rows det(I - A D^k) for every
holonomy element from explicit integer powers of D and one integer
determinant per element; `lefschetz_number` and `nielsen_number` average
its row.  `exterior_closed_form` is the
trivial-holonomy Lefschetz zeta from the exterior powers of D.
`unipotent_psi_embed` is the Heisenberg embedding as the product that
defines it, the unipotent block times phi*.
`holonomy_part`, `h_coords`, `lattice_element` and `lattice_member` decode
an entry's embedded matrices by model, as group elements once did
themselves; `decoded_iterate` decodes a candidate's embedded power that way.
`kernel`, `solve_columns` and `inverse` are plain row reduction
(`matrices.kernel_rows` and `matrices.solve_rows`) on a QMatrix.
`kb` is the Klein-bottle candidate with a diagonal linear part that many
tests start from.  `qq_poly`, `to_fraction` and `sympy_matrix` carry
values into and out of sympy, where the references do their rational
polynomial and matrix arithmetic, and `sympy_factors` is sympy's
factorization in `factor_over_q`'s form.
`flat_product`, `flat_det` and `exterior_form` are the integer kernels in
their generic form, for any n, with none of the library's closed forms;
`close_holonomy` closes a holonomy group by QMatrix products and a linear
scan with Fraction equality, reading each generator's linear part back
from its embedded matrix.  `group_elements` reads a `HolonomyGroup`'s
elements back as QMatrix, from its integer form.  `integer_form` is the
library's integer form as first written, in two passes over the entries.
"""

import itertools
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

import sympy

from infranil.catalog import ABELIAN, abelian_embed, catalog_lookup, holonomy, psi_embed
from infranil.errors import CatalogError, InfranilError, InvalidCandidateError
from infranil.matrices import QMatrix, det_one_minus_z, exterior_power, kernel_rows, solve_rows
from infranil.polynomials import IntPoly
from infranil.selfmaps import MapCandidate
from infranil.series import RatFuncProduct

X = sympy.Symbol("x")


def flat_product(a, b, n: int) -> tuple:
    """Row-major product of two n x n matrices given as flat int tuples."""
    cols = [b[j::n] for j in range(n)]
    return tuple(sum(map(mul, a[i * n:(i + 1) * n], col)) for i in range(n) for col in cols)


def flat_det(flat, n: int) -> int:
    """Determinant of the n x n integer matrix given row-major as `flat`, by
    cofactor expansion along the first row."""
    if n == 0:
        return 1
    return sum(
        (-1) ** c * flat[c]
        * flat_det([flat[r * n + k] for r in range(1, n) for k in range(n) if k != c], n - 1)
        for c in range(n) if flat[c]
    )


def exterior_form(flat, n: int, j: int) -> tuple:
    """Lambda^j of the n x n integer matrix given row-major as `flat`: its
    j x j minors, row-major, rows and columns indexed by lexicographic
    j-subsets."""
    subsets = list(itertools.combinations(range(n), j))
    return tuple(
        flat_det([flat[r * n + c] for r in rows for c in cols], j)
        for rows in subsets for cols in subsets
    )


def group_elements(group) -> tuple:
    """The elements of a HolonomyGroup as QMatrix: form = (r, flats) gives
    A_i = flats[i] / r, row-major."""
    r, flats = group.form
    n = isqrt(len(flats[0]))
    return tuple(QMatrix([[Fraction(v, r) for v in flat[i * n:(i + 1) * n]] for i in range(n)])
                 for flat in flats)


def unipotent_psi_embed(x, y, z, phi_star, k) -> QMatrix:
    """psi(h(x,y,z), phi): the block [[1, k y/2, -k x/2], [0, 1, 0],
    [0, 0, 1]] * phi*, with translation column (-k x y/2 + z, x, y)."""
    x, y, z, k = Fraction(x), Fraction(y), Fraction(z), Fraction(k)
    block = QMatrix([[1, k * y / 2, -k * x / 2], [0, 1, 0], [0, 0, 1]]) * phi_star
    column = (-k * x * y / 2 + z, x, y)
    return QMatrix([list(row) + [v] for row, v in zip(block.rows, column)] + [[0, 0, 0, 1]])


def holonomy_part(entry, matrix) -> QMatrix:
    """The linear part of an element of the entry's group, from its embedded
    matrix: the rotation block in the abelian model; in the Heisenberg one,
    the block with the unipotent twist that psi puts in front of phi*
    undone."""
    n = entry.dim
    block = QMatrix([row[:n] for row in matrix.rows[:n]])
    if entry.model == ABELIAN:
        return block
    x, y, k = matrix[1, 3], matrix[2, 3], entry.k
    return QMatrix([[1, -k * y / 2, k * x / 2], [0, 1, 0], [0, 0, 1]]) * block


def translation_column(matrix) -> tuple:
    """The translation of an embedded element of an abelian entry: the last
    column without its corner entry."""
    return tuple(row[-1] for row in matrix.rows[:-1])


def h_coords(entry, matrix) -> tuple:
    """Exponential coordinates (x, y, z) of the nilpotent part of an embedded
    element of a Heisenberg entry."""
    x, y = matrix[1, 3], matrix[2, 3]
    return (x, y, matrix[0, 3] + entry.k * x * y / 2)


def lattice_element(entry, coords) -> QMatrix:
    """The embedded pure-lattice element of the entry with the given
    coordinates."""
    if entry.model == ABELIAN:
        return abelian_embed(QMatrix.identity(entry.dim), coords)
    x, y, z = coords
    return psi_embed(x, y, z, QMatrix.identity(3), entry.k)


def lattice_member(entry, matrix) -> bool:
    """Is this embedded element a pure translation by a lattice element?
    Abelian: identity rotation and integral translation.  Heisenberg:
    identity automorphism part and integral h-coordinates."""
    if holonomy_part(entry, matrix) != QMatrix.identity(entry.dim):
        return False
    abelian = entry.model == ABELIAN
    coords = translation_column(matrix) if abelian else h_coords(entry, matrix)
    return all(v.denominator == 1 for v in coords)


def decoded_iterate(candidate, k: int) -> MapCandidate:
    """The candidate of the k-th iterate, decoded from the embedded power
    alone: translation column (abelian) or h-coordinates (Heisenberg), and
    the holonomy part."""
    entry = candidate.entry
    power = candidate.embedded().power(k)
    coords = translation_column(power) if entry.model == ABELIAN else h_coords(entry, power)
    return MapCandidate(entry, coords, holonomy_part(entry, power))


def close_holonomy(entry) -> tuple:
    """(elements, table, generator_indices, representatives) of the holonomy
    group of the entry's generators, the elements as QMatrix, in the
    library's element order: breadth first from the identity,
    left-multiplying by each generator's holonomy part."""
    elements = [QMatrix.identity(entry.dim)]
    reps = [QMatrix.identity(entry.dim + 1)]
    gen_parts = [holonomy_part(entry, g) for g in entry.generators]

    def find(mat):
        return next((i for i, e in enumerate(elements) if e == mat), None)

    frontier = [0]
    while frontier:
        i = frontier.pop(0)
        for g, gpart in zip(entry.generators, gen_parts):
            prod = gpart * elements[i]
            if find(prod) is None:
                elements.append(prod)
                reps.append(g * reps[i])
                frontier.append(len(elements) - 1)
    table = tuple(tuple(find(a * b) for b in elements) for a in elements)
    if any(x is None for row in table for x in row):
        raise CatalogError(f"holonomy of {entry.id} is not closed")
    return tuple(elements), table, tuple(find(p) for p in gen_parts), tuple(reps)


def integer_form(mats) -> tuple:
    """(r, flats): r is the least common denominator of the matrices'
    entries, flats[i] the entries of r * mats[i], row-major, as ints; in two
    passes, every denominator read for r and again for the flats."""
    r = lcm(*(v.denominator for m in mats for row in m.rows for v in row))
    return r, tuple(
        tuple(v.numerator * (r // v.denominator) for row in m.rows for v in row) for m in mats
    )


def direct_table(candidate, kmax: int) -> list:
    """The `det_table` rows for k = 1..kmax, as (den, dets) with
    det(I - A_i D^k) = dets[i] / den: with D = D'/q and A_i = A_i'/r in
    integer form, det(I - A_i D^k) is det(r q^k I - A_i' D'^k) / (r q^k)^n,
    from an explicit power of D' and one integer determinant per element."""
    n = candidate.entry.dim
    q, (dq,) = integer_form([candidate.dstar])
    r, elements = integer_form(group_elements(holonomy(candidate.entry)))
    ident = [int(i == j) for i in range(n) for j in range(n)]
    rows, power = [], ident
    for k in range(1, kmax + 1):
        power = flat_product(power, dq, n)
        scale = r * q ** k
        rows.append((scale ** n, tuple(
            flat_det([scale * e - v for e, v in zip(ident, flat_product(a, power, n))], n)
            for a in elements
        )))
    return rows


def exact_average(total: int, count: int, what: str) -> int:
    """total / count, which must be an integer."""
    value, rem = divmod(total, count)
    if rem:
        raise InvalidCandidateError(f"{what} is not an integer: {Fraction(total, count)}")
    return value


def lefschetz_from_row(row, indices=None) -> int:
    den, nums = row
    vals = nums if indices is None else [nums[i] for i in indices]
    return exact_average(sum(vals), den * len(vals), "averaged Lefschetz number")


def nielsen_from_row(row, indices=None) -> int:
    den, nums = row
    vals = nums if indices is None else [nums[i] for i in indices]
    return exact_average(sum(map(abs, vals)), den * len(vals), "averaged Nielsen number")


def lefschetz_number(candidate, k: int) -> int:
    return lefschetz_from_row(direct_table(candidate, k)[-1])


def nielsen_number(candidate, k: int) -> int:
    row = direct_table(candidate, k)[-1]
    value = nielsen_from_row(row)
    if value < abs(lefschetz_from_row(row)):
        raise InvalidCandidateError("Nielsen number below |Lefschetz number|")
    return value


def exterior_closed_form(dstar: QMatrix) -> RatFuncProduct:
    """prod_j det(I - z Lambda^j D)^((-1)^(j+1)): the trivial-holonomy
    Lefschetz zeta in closed form."""
    n = dstar.nrows
    return RatFuncProduct.from_factors(
        (det_one_minus_z(exterior_power(dstar, j)), (-1) ** (j + 1)) for j in range(n + 1)
    )


def kernel(m: QMatrix) -> list:
    """Basis of the right null space, as a list of coordinate tuples."""
    return [tuple(v) for v in kernel_rows(m.rows, Fraction(0), Fraction(1))]


def solve_columns(m: QMatrix, rhs: QMatrix):
    """Solve m @ X = rhs, returning X, or None when inconsistent."""
    x = solve_rows(m.rows, rhs.rows, Fraction(0))
    return None if x is None else QMatrix(x)


def inverse(m: QMatrix) -> QMatrix:
    if m.nrows != m.ncols:
        raise InfranilError("inverse of a non-square matrix")
    inv = solve_columns(m, QMatrix.identity(m.nrows))
    if inv is None:
        raise InfranilError("matrix is singular")
    return inv


def kb(a, b, r=0, s=0) -> MapCandidate:
    """The Klein-bottle candidate with D* = diag(a, b) and translation (r, s)."""
    return MapCandidate(catalog_lookup("klein-bottle"), (Fraction(r), Fraction(s)),
                        QMatrix([[a, 0], [0, b]]))


def qq_poly(value) -> sympy.Poly:
    """A sympy polynomial over QQ in X: an IntPoly by its coefficients, an
    int or a Fraction as a constant."""
    if isinstance(value, IntPoly):
        return sympy.Poly(list(reversed(value.coeffs)), X, domain=sympy.QQ)
    return sympy.Poly(rational(value), X, domain=sympy.QQ)


def rational(value) -> sympy.Rational:
    """An int or a Fraction as a sympy rational."""
    return sympy.Rational(value.numerator, value.denominator)


def to_fraction(value) -> Fraction:
    """A sympy rational as a Fraction."""
    return Fraction(int(value.p), int(value.q))


def sympy_matrix(rows) -> sympy.Matrix:
    """Rows of Fractions as a sympy matrix of rationals."""
    return sympy.Matrix([[rational(v) for v in row] for row in rows])


def sympy_factors(coeffs) -> list:
    """`factor_over_q`'s form of sympy's factorization of the polynomial with
    ascending integer coefficients `coeffs`: each irreducible factor a
    primitive IntPoly with positive leading coefficient, with its
    multiplicity, sorted by degree and then coefficients."""
    _, factors = sympy.Poly(list(reversed(coeffs)), X).factor_list()
    out = []
    for f, mult in factors:
        c = [int(v) for v in reversed(f.all_coeffs())]
        out.append((IntPoly([-v for v in c] if c[-1] < 0 else c), mult))
    return sorted(out, key=lambda fm: fm[0].sort_key())
