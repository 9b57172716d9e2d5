"""Reference implementations kept as test oracles.

`ref_positive_part` is the modulus split that `fixedpoint.positive_part`
replaced: the signs det(A on V/W) from rational kernels and solves of the
modulus <= 1 block, and, when an irreducible factor straddles the unit
circle, from an eigenvector, kernel and solve over Q(theta).  `part_of` is
the engine's positive part of a candidate, set against it and read by the
other tests.
`anosov_fastpath` is the set of sufficient criteria for N(f) = |L(f)|, with
the holonomy-group predicates it reads.
"""

import sympy

from infranil.catalog import holonomy
from infranil.errors import InfranilError
from infranil.fixedpoint import (
    GT1,
    INSIDE,
    LTM1,
    MINUS_ONE,
    ONE,
    PositivePart,
    eigen_classify,
    exterior_data,
    exterior_traces,
    positive_part,
)
from infranil.matrices import QMatrix
from infranil.numberfield import field_det, field_kernel, field_solve_columns
from number_field import NumberField
from oracles import X, group_elements, kernel, qq_poly, solve_columns, sympy_matrix, to_fraction
from real_roots import isolate_real_roots


def _poly_at_matrix(p: sympy.Poly, m: QMatrix) -> QMatrix:
    """p(m) by Horner's rule, in sympy."""
    n = m.nrows
    sm, acc = sympy_matrix(m.rows), sympy.zeros(n, n)
    for c in p.all_coeffs():
        acc = acc * sm + c * sympy.eye(n)
    return QMatrix([[to_fraction(v) for v in acc.row(i)] for i in range(n)])


def _rational_le_block(ec) -> sympy.Poly:
    """Product of the pure modulus <= 1 factors with multiplicity (the
    rational part of the <= 1 invariant subspace)."""
    g = qq_poly(1)
    for fr in ec.root_data:
        if fr.side() == "le":
            for _ in range(fr.multiplicity):
                g = g * qq_poly(fr.factor)
    return g


def _mixed_factor(ec):
    mixed = [fr for fr in ec.root_data if fr.side() == "mixed"]
    if not mixed:
        return None
    if len(mixed) > 1 or mixed[0].multiplicity != 1:
        raise InfranilError("unexpected repeated or multiple mixed-modulus factors")
    return mixed[0]


def _nf_column(field: NumberField, dstar: QMatrix):
    """A nonzero column of adj(D - theta I): an eigenvector for theta."""
    n = dstar.nrows
    theta = field.theta
    m = [[field.elem(dstar[i, j]) - (theta if i == j else field.zero) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        vec = []
        for row in range(n):
            sub = [[m[i][j] for j in range(n) if j != row] for i in range(n) if i != col]
            cof = field_det(sub, field.zero)
            vec.append(-cof if (row + col) % 2 == 1 else cof)
        if any(v != field.zero for v in vec):
            return vec
    raise InfranilError("zero adjugate: defective eigenvalue in mixed factor")


def _mixed_signs(dstar, elements, ec, mixed, dets):
    """Determinant signs when one irreducible factor straddles the circle."""
    n = dstar.nrows
    # the spectrum keeps only the real roots' classes, in ascending order
    reals = list(zip(isolate_real_roots(mixed.factor), mixed.real))
    le_reals = [iv for iv, c in reals if c in (INSIDE, ONE, MINUS_ONE)]
    gt_reals = [iv for iv, c in reals if c in (GT1, LTM1)]
    lt, eq, gt = mixed.modulus_counts()
    if lt + eq == 1:
        field = NumberField(mixed.factor, le_reals[0])
        mixed_basis = [_nf_column(field, dstar)]
    elif gt == 1:
        field = NumberField(mixed.factor, gt_reals[0])
        # <= 1 part of the block: kernel of (D^2 - (e1 - theta) D + e3/theta)
        # where e1, e3 are the sum and product of the factor's roots
        _, c2, _, c0 = map(to_fraction, qq_poly(mixed.factor).monic().all_coeffs())
        e1, e3 = -c2, -c0
        theta = field.theta
        s23 = field.elem(e1) - theta
        p23 = field.elem(e3) / theta
        d2 = dstar * dstar
        mat = [
            [field.elem(d2[i, j]) - s23 * dstar[i, j] + (p23 if i == j else field.zero)
             for j in range(n)]
            for i in range(n)
        ]
        mixed_basis = field_kernel(mat, field.zero, field.one)
        if len(mixed_basis) != 2:
            raise InfranilError("mixed cubic block kernel has wrong dimension")
    else:
        raise InfranilError("mixed factor without a one-dimensional side")

    g = _rational_le_block(ec)
    rational_basis = kernel(_poly_at_matrix(g, dstar)) if g.degree() > 0 else []
    cols = [[field.elem(v) for v in vec] for vec in mixed_basis + rational_basis]
    d = len(cols)
    bmat = [[cols[j][i] for j in range(d)] for i in range(n)]
    signs = []
    for a, da in zip(elements, dets):
        image = [
            [sum(field.elem(a[i, t]) * bmat[t][j] for t in range(n)) for j in range(d)]
            for i in range(n)
        ]
        m = field_solve_columns(bmat, image, field.zero)
        if m is None:
            raise InfranilError("holonomy does not preserve the <= 1 subspace")
        det = field_det(m, field.zero)
        if not det.is_rational():
            raise InfranilError("restricted determinant fails to be rational")
        signs.append(da / det.as_fraction())
    return signs


def part_of(candidate) -> PositivePart:
    """`fixedpoint.positive_part` of a candidate, on its exterior data and
    the shortest exterior traces (kmax 1) of its holonomy group."""
    ext, group = exterior_data(candidate.dstar), candidate.entry.holonomy_group
    return positive_part(ext, group, exterior_traces(ext, group, 1))


def ref_positive_part(candidate, ec) -> PositivePart:
    """The positive part by the modulus split, where ec is
    `eigen_classify(candidate.dstar)`: det(A on V/W) = det(A) / det(A on W),
    with W spanned by a rational kernel basis, over Q(theta) when a factor
    straddles the circle."""
    group = holonomy(candidate.entry)
    n = candidate.entry.dim
    if ec.dim_gt1 == 0:
        return PositivePart(1, (1,) * group.order, tuple(range(group.order)))
    mixed = _mixed_factor(ec)
    elements = group_elements(group)
    dets = [a.det() for a in elements]
    if mixed is not None:
        signs_raw = _mixed_signs(candidate.dstar, elements, ec, mixed, dets)
    else:
        g = _rational_le_block(ec)
        if g.degree() == 0:
            signs_raw = dets
        else:
            basis = kernel(_poly_at_matrix(g, candidate.dstar))
            if len(basis) != n - ec.dim_gt1:
                raise InfranilError("kernel dimension mismatch in modulus split")
            vmat = QMatrix(list(zip(*basis)))
            signs_raw = []
            for a, da in zip(elements, dets):
                m = solve_columns(vmat, a * vmat)
                if m is None:
                    raise InfranilError("holonomy does not preserve the <= 1 block")
                signs_raw.append(da / m.det())
    if any(s not in (1, -1) for s in signs_raw):
        raise InfranilError(f"determinant signs {signs_raw} are not all +-1")
    signs = tuple(int(s) for s in signs_raw)
    plus = tuple(i for i, s in enumerate(signs) if s == 1)
    return PositivePart(group.order // len(plus), signs, plus)


def _order_of(group, i: int) -> int:
    j, n = i, 1
    while j != 0:  # index 0 is the identity
        j = group.table[j][i]
        n += 1
    return n


def cyclic_generators(group):
    return [i for i in range(group.order) if _order_of(group, i) == group.order]


def is_cyclic(group) -> bool:
    return bool(cyclic_generators(group))


def has_index_two_subgroup(group) -> bool:
    """True iff the group admits a surjection onto Z/2, i.e. the subgroup
    generated by all squares and commutators is proper (the quotient by it
    is the maximal elementary abelian 2-quotient)."""
    table, order = group.table, group.order
    gens = {0}
    for i in range(order):
        gens.add(table[i][i])
        for j in range(order):
            inv_ji = next(m for m in range(order) if table[table[j][i]][m] == 0)
            gens.add(table[table[i][j]][inv_ji])
    closure = set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                if table[a][b] not in closure:
                    closure.add(table[a][b])
                    changed = True
    return len(closure) < order


def anosov_fastpath(candidate) -> str:
    """Return "holds" when one of the sufficient criteria guarantees
    N(f) = |L(f)| for this candidate (and all its iterates); otherwise
    "unknown" (never "fails")."""
    group = holonomy(candidate.entry)
    if group.order == 1:
        return "holds"  # nilmanifold
    ec = eigen_classify(candidate.dstar)
    if ec.dim_gt1 == 0:
        return "holds"  # no expanding block at all
    # expanding block carries the identity representation: every holonomy
    # element moves vectors only inside the <= 1 block
    gd = _poly_at_matrix(_rational_le_block(ec), candidate.dstar)
    elements = group_elements(group)
    if all(gd * a == gd for a in elements):
        return "holds"
    if is_cyclic(group):
        for i in cyclic_generators(group):
            if sympy_matrix(elements[i].rows).charpoly(X).eval(-1) != 0:
                return "holds"  # cyclic holonomy, generator without eigenvalue -1
    if not has_index_two_subgroup(group):
        return "holds"
    return "unknown"
