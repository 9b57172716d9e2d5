#!/usr/bin/env python3
"""Generate src/infranil/data/families.json.

Each family row records: parameter domains (what instantiation admits and
the sampler draws), derived parameters, the constraints that the domains do
not imply, the linear-part template, the translation template, and the
expected Nielsen zeta table as guarded variants.  A variant holds one
product of symbolic factors per holonomy index, the Nielsen zeta for p and
n even; the other three parities follow from it by N_f(z) = B(sigma z)^eps
(`infranil.series.parity_signs`), so they are not written.  A Heisenberg
manifold's lattice parameter k and its domain come from the catalog, not
from this file.

The helpers below cover the product shapes that repeat across manifolds;
every deviation from a shared shape is written out explicitly.  Run from the
repo root:  python3 tools/gen_corpus.py [OUTPUT]  (default: the packaged file)
"""

import json
import os
import sys

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "infranil", "data", "families.json")


def fac(coeffs, exp=1):
    return {"coeffs": [str(c) for c in coeffs], "exp": exp}


def lm(u):
    """1 - u z"""
    return ["1", f"-({u})"]


def lp(u):
    """1 + u z"""
    return ["1", f"({u})"]


def qm(tr, det):
    """(1 - l1 z)(1 - l2 z) = 1 - tr z + det z^2"""
    return ["1", f"-({tr})", f"({det})"]


def ratio(top, bottom=1):
    """(1 - top z)/(1 - bottom z)"""
    return [fac(lm(top)), fac(lm(bottom), -1)]


def pair(tr, det):
    """(1-l1 z)(1-l2 z) / ((1-z)(1-l1 l2 z))"""
    return [fac(qm(tr, det)), fac(lm(1), -1), fac(lm(det), -1)]


def scaled_pair(e, tr, det):
    """(1-e z)(1-e*det z) / ((1-e l1 z)(1-e l2 z))"""
    return [fac(lm(e)), fac(lm(f"({e})*({det})")),
            fac(qm(f"({e})*({tr})", f"({e})*({e})*({det})"), -1)]


def quad_ratio(tr, det, scale):
    """(1-l1 z)(1-l2 z) / ((1-s l1 z)(1-s l2 z))"""
    return [fac(qm(tr, det)), fac(qm(f"({scale})*({tr})", f"({scale})*({scale})*({det})"), -1)]


def rotation(u, v, sign):
    """(1-uz)(1 -+ u v z) / ((1-z)(1 -+ v z)) with the inner sign flipped when
    sign == -1 (the quarter/third-turn tables with negated block)."""
    inner = lm if sign == 1 else lp
    return [fac(lm(u)), fac(inner(f"({u})*({v})")), fac(lm(1), -1), fac(inner(v), -1)]


def params(*pairs):
    return [{"name": n, "domain": d} for n, d in pairs]


def derived(*pairs):
    return [{"name": n, "expr": e} for n, e in pairs]


def family(index, desc, pars, dstar, translation, zeta, constraints=(), der=()):
    return {
        "index": index,
        "desc": desc,
        "params": pars,
        "derived": list(der),
        "constraints": list(constraints),
        "dstar": dstar,
        "translation": translation,
        "zeta": zeta,
    }


def variant(one=None, two=None, guard=None):
    """One guarded table: the Nielsen zeta for p and n even on index 1
    (`one`) and on index 2 (`two`), each where the family reaches it."""
    v = {"products": {str(i): p for i, p in ((1, one), (2, two)) if p is not None}}
    if guard is not None:
        v["guard"] = guard
    return v


CONSTANT = variant([fac(lm(1), -1)])  # 1/(1 - z), the constant map class

manifolds = []

# --- circle ---------------------------------------------------------------

manifolds.append({
    "manifold": "circle",
    "families": [
        family(
            1, "degree-d map",
            params(("d", "int"), ("r", "rational")),
            [["d"]], ["r"],
            [variant(ratio("d"))],
        )
    ],
})

# --- torus-2 ---------------------------------------------------------------

manifolds.append({
    "manifold": "torus-2",
    "families": [
        family(
            1, "integer matrix, free translation",
            params(("m11", "int"), ("m12", "int"), ("m21", "int"), ("m22", "int"),
                   ("r", "rational"), ("s", "rational")),
            [["m11", "m12"], ["m21", "m22"]], ["r", "s"],
            [variant(pair("tr", "q"))],
            der=derived(("tr", "m11 + m22"), ("q", "m11*m22 - m12*m21")),
        )
    ],
})

# --- torus-3 ---------------------------------------------------------------

_t3_product = [fac(["1", "-(e1)", "(e2)", "-(e3)"]), fac(lm("e3")), fac(lm(1), -1),
               fac(["1", "-(e2)", "(e1*e3)", "-(e3*e3)"], -1)]
manifolds.append({
    "manifold": "torus-3",
    "families": [
        family(
            1, "integer matrix, free translation",
            params(*[(f"m{i}{j}", "int") for i in (1, 2, 3) for j in (1, 2, 3)],
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["m11", "m12", "m13"], ["m21", "m22", "m23"], ["m31", "m32", "m33"]],
            ["r", "s", "t"],
            [variant(_t3_product)],
            der=derived(
                ("e1", "m11 + m22 + m33"),
                ("e2", "m11*m22 - m12*m21 + m11*m33 - m13*m31 + m22*m33 - m23*m32"),
                ("e3", "m11*(m22*m33 - m23*m32) - m12*(m21*m33 - m23*m31)"
                       " + m13*(m21*m32 - m22*m31)"),
            ),
        )
    ],
})

# --- klein-bottle ----------------------------------------------------------

_kb_zeta = [variant(ratio("a"), ratio("b", "a*b"))]
manifolds.append({
    "manifold": "klein-bottle",
    "families": [
        family(
            1, "diagonal, both entries odd",
            params(("a", "int_odd"), ("b", "int_odd"), ("r", "rational"), ("s", "half_int")),
            [["a", "0"], ["0", "b"]], ["r", "s"],
            _kb_zeta,
        ),
        family(
            2, "diagonal, second entry even",
            params(("a", "int_odd"), ("b", "int_even"), ("r", "rational"), ("s", "quarter_odd")),
            [["a", "0"], ["0", "b"]], ["r", "s"],
            _kb_zeta,
        ),
        family(
            3, "rank-one, both entries even",
            params(("a", "int_even"), ("b", "int_even"), ("r", "rational"), ("s", "rational")),
            [["a", "0"], ["b", "0"]], ["r", "s"],
            [variant(ratio("a"))],
        ),
    ],
})

# --- hantzsche-wendt --------------------------------------------------------

def _hw_alone(x, yz):
    return (f"(abs({x}) > 1 and abs({yz[0]}) <= 1 and abs({yz[1]}) <= 1)"
            f" or (abs({x}) <= 1 and abs({yz[0]}) > 1 and abs({yz[1]}) > 1)")


_hw_diag_zeta = [
    variant(ratio("a*b*c"), ratio("a", "b*c"), guard=_hw_alone("a", ("b", "c"))),
    variant(ratio("a*b*c"), ratio("b", "a*c"), guard=_hw_alone("b", ("a", "c"))),
    variant(ratio("a*b*c"), ratio("c", "a*b"), guard=_hw_alone("c", ("a", "b"))),
    variant(ratio("a*b*c")),
]

# eigenvalues a and +-sqrt(bc): the swap families share this table
_hw_swap_zeta = [variant([fac(lp("a*b*c")), fac(lm(1), -1)], [fac(lm("a")), fac(lp("b*c"), -1)])]

manifolds.append({
    "manifold": "hantzsche-wendt",
    "families": [
        family(
            1, "diagonal, all odd",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "half_int")),
            [["a", "0", "0"], ["0", "b", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            _hw_diag_zeta,
        ),
        family(
            2, "swap of the last two axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "half_int"), ("t", "half_int")),
            [["a", "0", "0"], ["0", "0", "b"], ["0", "c", "0"]], ["r", "s", "t"],
            _hw_swap_zeta,
        ),
        family(
            3, "swap of the first two axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "quarter_odd")),
            [["0", "b", "0"], ["c", "0", "0"], ["0", "0", "a"]], ["r", "s", "t"],
            _hw_swap_zeta,
        ),
        family(
            4, "swap of the outer axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "quarter_odd")),
            [["0", "0", "b"], ["0", "a", "0"], ["c", "0", "0"]], ["r", "s", "t"],
            _hw_swap_zeta,
        ),
        family(
            5, "three-cycle of the axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "half_int")),
            [["0", "a", "0"], ["0", "0", "b"], ["c", "0", "0"]], ["r", "s", "t"],
            [variant(ratio("a*b*c"))],
        ),
        family(
            6, "opposite three-cycle of the axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "quarter_odd"), ("t", "quarter_odd")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "c", "0"]], ["r", "s", "t"],
            [variant(ratio("a*b*c"))],
        ),
        family(
            7, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [CONSTANT],
        ),
    ],
})

# --- flat3-1 ----------------------------------------------------------------

manifolds.append({
    "manifold": "flat3-1",
    "families": [
        family(
            1, "block 2x2 plus odd axis",
            params(("a", "int"), ("b", "int"), ("c", "int"), ("d", "int"), ("e", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["a", "b", "0"], ["c", "d", "0"], ["0", "0", "e"]], ["r", "s", "t"],
            [variant(
                # the q / e*q placement is pinned by the averaging formula,
                # L(f^k) = 1 + q^k - e^k - (e q)^k: the other placement gives
                # negative "Nielsen numbers" on complex-pair blocks
                [fac(lm("e")), fac(lm("e*q")), fac(lm(1), -1), fac(lm("q"), -1)],
                quad_ratio("tr", "q", "e"),
            )],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            2, "rank-one with even entries",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- flat3-2 ----------------------------------------------------------------

manifolds.append({
    "manifold": "flat3-2",
    "families": [
        family(
            1, "2x2 block with half-integer corner, third row zero",
            params(("a", "int"), ("b", "half_odd"), ("c", "int_even"), ("d", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "half_int")),
            [["a", "b", "0"], ["c", "d", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [variant(pair("tr", "q"))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            2, "rank <= 2 with even first column",
            params(("a", "int_even"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int_even"), ("f", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["a", "b", "0"], ["c", "d", "0"], ["e", "f", "0"]], ["r", "s", "t"],
            [variant(pair("tr", "q"))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            3, "2x2 block plus axis",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int"), ("r", "rational"), ("s", "rational"), ("t", "half_int")),
            [["a", "b", "0"], ["c", "d", "0"], ["0", "0", "e"]], ["r", "s", "t"],
            [variant(pair("tr", "q"), scaled_pair("e", "tr", "q"))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
    ],
})

# --- flat3-3 ----------------------------------------------------------------

manifolds.append({
    "manifold": "flat3-3",
    "families": [
        family(
            1, "symmetric pair rows, half-integer entries",
            params(("a", "int_odd"), ("b", "half_odd"), ("c", "int_odd"), ("d", "half_odd"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "d"], ["c", "d", "d"]], ["r", "s", "t"],
            [variant(pair("tr", "q"))],
            constraints=["is_int(s - t - d)"],
            der=derived(("t", "s - d + it"), ("tr", "a + 2*d"), ("q", "2*(a*d - b*c)")),
        ),
        family(
            2, "symmetric pair rows, integer diagonal",
            params(("a", "int_odd"), ("b", "half_odd"), ("c", "int_even"), ("d", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "d"], ["c", "d", "d"]], ["r", "s", "t"],
            [variant(pair("tr", "q"))],
            constraints=["is_int(s - t)"],
            der=derived(("t", "s - it"), ("tr", "a + 2*d"), ("q", "2*(a*d - b*c)")),
        ),
        family(
            3, "rank <= 2 with even first column",
            params(("a", "int_even"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int_even"), ("f", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["a", "b", "b"], ["c", "d", "d"], ["e", "f", "f"]], ["r", "s", "t"],
            [variant(pair("tr", "q"))],
            der=derived(("tr", "a + d + f"), ("q", "a*d - b*c + a*f - b*e")),
        ),
        family(
            4, "symmetric block, odd corner",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_odd"), ("d", "int"), ("e", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "e"], ["c", "e", "d"]], ["r", "s", "t"],
            [variant(pair("tr", "q"), scaled_pair("g", "tr", "q"))],
            constraints=["is_int(2*(s - t)) and not is_int(s - t)"],
            der=derived(("t", "s - it - 1/2"), ("tr", "a + d + e"),
                        ("q", "a*(d + e) - 2*b*c"), ("g", "d - e")),
        ),
        family(
            5, "symmetric block, even corner",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_even"), ("d", "int"), ("e", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "e"], ["c", "e", "d"]], ["r", "s", "t"],
            [variant(pair("tr", "q"), scaled_pair("g", "tr", "q"))],
            constraints=["is_int(s - t)"],
            der=derived(("t", "s - it"), ("tr", "a + d + e"),
                        ("q", "a*(d + e) - 2*b*c"), ("g", "d - e")),
        ),
    ],
})

# --- flat3-4 ----------------------------------------------------------------

def _diag_guard_variants(third):
    """Variants for diag(a, b, c)-type families on the Z2+Z2 manifolds:
    one table per case of how many of a, b expand."""
    return [
        variant(ratio(third), guard="abs(a) <= 1 and abs(b) <= 1"),
        variant(two=ratio("a*b*c", "a*b"), guard="abs(a) > 1 and abs(b) > 1"),
        variant(two=ratio("a", f"a*({third})"), guard="abs(a) > 1 and abs(b) <= 1"),
        variant(two=ratio("b", f"b*({third})"), guard="abs(b) > 1 and abs(a) <= 1"),
    ]


manifolds.append({
    "manifold": "flat3-4",
    "families": [
        family(
            1, "diagonal",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["a", "0", "0"], ["0", "b", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            _diag_guard_variants("c"),
        ),
        family(
            2, "collapsed middle axis",
            params(("a", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "half_int"), ("t", "rational")),
            [["a", "0", "0"], ["0", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"), ratio("a", "a*c"))],
        ),
        family(
            3, "even shear into the middle axis",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "rational"), ("t", "rational")),
            [["a", "0", "0"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"), ratio("a", "a*c"))],
        ),
        family(
            4, "even shear into the first axes",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "half_int"), ("t", "rational")),
            [["a", "0", "0"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"), ratio("a", "a*c"))],
        ),
        family(
            5, "odd cross shear",
            params(("a", "int_odd"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            6, "rank-one, all even",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- flat3-5 ----------------------------------------------------------------

manifolds.append({
    "manifold": "flat3-5",
    "families": [
        family(
            1, "diagonal, all odd",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["a", "0", "0"], ["0", "b", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            _diag_guard_variants("c"),
        ),
        family(
            2, "even first axis with shear",
            params(("a", "int_even"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "rational"), ("t", "rational")),
            [["a", "0", "0"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"), ratio("a", "a*c"))],
        ),
        family(
            3, "even shear into the first axes",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "rational")),
            [["a", "0", "0"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"), ratio("a", "a*c"))],
        ),
        family(
            4, "odd cross shear",
            params(("a", "int_odd"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            5, "rank-one, all even",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- flat3-6 ----------------------------------------------------------------

_rot_plus = [["a", "b", "0"], ["-b", "a", "0"], ["0", "0", "c"]]
_rot_minus = [["a", "b", "0"], ["b", "-a", "0"], ["0", "0", "c"]]

manifolds.append({
    "manifold": "flat3-6",
    "families": [
        family(
            1, "rotation block, integral translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:1"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _rot_plus, ["r", "s", "t"],
            [variant(rotation("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            2, "rotation block, half-shifted translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:1"),
                   ("r", "half_odd"), ("s", "half_odd"), ("t", "rational")),
            _rot_plus, ["r", "s", "t"],
            [variant(rotation("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            3, "reflection block, integral translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:3"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _rot_minus, ["r", "s", "t"],
            [variant(rotation("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            4, "reflection block, half-shifted translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:3"),
                   ("r", "half_odd"), ("s", "half_odd"), ("t", "rational")),
            _rot_minus, ["r", "s", "t"],
            [variant(rotation("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            5, "collapsed block",
            params(("c", "int_mod:4:2"), ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            6, "rank-one in multiples of four",
            params(("a", "int_multiple:4"), ("b", "int_multiple:4"), ("c", "int_multiple:4"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- flat3-7 ----------------------------------------------------------------

_hex_plus = [["a", "b", "0"], ["-b", "a+b", "0"], ["0", "0", "c"]]
_hex_minus = [["a", "b", "0"], ["a+b", "-a", "0"], ["0", "0", "c"]]


def _flat37_family(index, desc, block, cmod, rdom, sdom, sign):
    return family(
        index, desc,
        params(("a", "int"), ("b", "int"), ("c", f"int_mod:3:{cmod}"),
               ("r", rdom), ("s", sdom), ("t", "rational")),
        block, ["r", "s", "t"],
        [variant(rotation("c", "qq", sign))],
        der=derived(("qq", "a*a + b*b + a*b")),
    )


manifolds.append({
    "manifold": "flat3-7",
    "families": [
        _flat37_family(1, "order-3 block, integral translation", _hex_plus, 1,
                       "int", "int", 1),
        _flat37_family(2, "order-3 block, (1/3, 2/3) shift", _hex_plus, 1,
                       "shift:1/3", "shift:2/3", 1),
        _flat37_family(3, "order-3 block, (2/3, 1/3) shift", _hex_plus, 1,
                       "shift:2/3", "shift:1/3", 1),
        _flat37_family(4, "reversing block, integral translation", _hex_minus, 2,
                       "int", "int", -1),
        _flat37_family(5, "reversing block, (1/3, 2/3) shift", _hex_minus, 2,
                       "shift:1/3", "shift:2/3", -1),
        _flat37_family(6, "reversing block, (2/3, 1/3) shift", _hex_minus, 2,
                       "shift:2/3", "shift:1/3", -1),
        family(
            7, "rank-one in multiples of three",
            params(("a", "int_multiple:3"), ("b", "int_multiple:3"), ("c", "int_multiple:3"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- flat3-8 ----------------------------------------------------------------

_zero_block_c = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "c"]]

manifolds.append({
    "manifold": "flat3-8",
    "families": [
        family(
            1, "order-6 block",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:6:1"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _hex_plus, ["r", "s", "t"],
            [variant(rotation("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b + a*b")),
        ),
        family(
            2, "reversing block",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:6:5"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _hex_minus, ["r", "s", "t"],
            # the +-sqrt(a^2+ab+b^2) eigenvalue pair contributes here, so the
            # full reversing-block table applies, not the bare c-table
            [variant(rotation("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b + a*b")),
        ),
        family(
            3, "collapsed block, integral translation",
            params(("c", "int_mod:6:2,4"), ("r", "int"), ("s", "int"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            4, "collapsed block, (1/3, 2/3) shift",
            params(("c", "int_mod:6:2,4"), ("r", "shift:1/3"), ("s", "shift:2/3"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            5, "collapsed block, (2/3, 1/3) shift",
            params(("c", "int_mod:6:2,4"), ("r", "shift:2/3"), ("s", "shift:1/3"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            6, "collapsed block, half-integral translation",
            params(("c", "int_mod:6:3"), ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
        family(
            7, "rank-one in multiples of six",
            params(("a", "int_multiple:6"), ("b", "int_multiple:6"), ("c", "int_multiple:6"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(ratio("c"))],
        ),
    ],
})

# --- heis-I ------------------------------------------------------------------

_heis_I_product = [fac(qm("tr", "dt")), fac(lm("dt*dt")), fac(lm(1), -1),
                   fac(["1", "-(dt*tr)", "(dt*dt*dt)"], -1)]

manifolds.append({
    "manifold": "heis-I",
    "families": [
        family(
            1, "general lattice endomorphism",
            params(("a", "int"), ("b", "int"), ("c", "int"), ("d", "int"),
                   ("ix", "int"), ("iy", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["a*d - b*c", "x", "y"], ["0", "a", "b"], ["0", "c", "d"]],
            ["r", "s", "t"],
            [variant(_heis_I_product)],
            der=derived(
                ("x", "ix - k*(a*s - c*r + a*c/2)"),
                ("y", "iy - k*(b*s - d*r + b*d/2)"),
                ("tr", "a + d"), ("dt", "a*d - b*c"),
            ),
        )
    ],
})

# --- heis-II -----------------------------------------------------------------

manifolds.append({
    "manifold": "heis-II",
    "families": [
        family(
            1, "block endomorphism of odd determinant",
            params(("a", "int"), ("b", "int"), ("c", "int"), ("d", "int"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["a*d - b*c", "0", "0"], ["0", "a", "b"], ["0", "c", "d"]],
            ["r", "s", "t"],
            [variant(ratio("dt*dt"),
                     [fac(qm("tr", "dt")), fac(["1", "-(dt*tr)", "(dt*dt*dt)"], -1)])],
            constraints=["(a*d - b*c) % 2 == 1"],
            der=derived(("tr", "a + d"), ("dt", "a*d - b*c")),
        ),
        family(
            2, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [CONSTANT],
        ),
    ],
})

# --- heis-IV -----------------------------------------------------------------

manifolds.append({
    "manifold": "heis-IV",
    "families": [
        family(
            1, "diagonal block",
            # the central-coordinate condition couples s, r and t: solving the
            # torsion-generator equation gives a*k*s/2 - 2*k*r*s - k*s + 2*t
            # in Z, and t is sampled by solving that for a free integer
            params(("a", "int_odd"), ("b", "int"), ("iy", "int"), ("it2", "int"),
                   ("r", "rational"), ("s", "half_int")),
            [["a*b", "0", "y"], ["0", "a", "0"], ["0", "0", "b"]], ["r", "s", "t"],
            [variant([fac(lm("a")), fac(lm("a*a*b*b")), fac(lm(1), -1), fac(lm("a*b*b"), -1)],
                     ratio("b", "a*a*b"))],
            constraints=["is_int(y - k*b*r)", "is_int(a*k*s)",
                         "is_int(a*k*s/2 - 2*k*r*s - k*s + 2*t)"],
            der=derived(("y", "iy + k*b*r"),
                        ("t", "(it2 - a*k*s/2 + 2*k*r*s + k*s)/2")),
        ),
        family(
            2, "nilpotent with even column",
            params(("a", "int_even"), ("b", "int_even"), ("ix", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "x", "0"], ["0", "a", "0"], ["0", "b", "0"]], ["r", "s", "t"],
            [variant(ratio("a"))],
            constraints=["is_int(x + k*a*b/2 + k*(a*s - b*r))",
                         "is_int((x + k*a*b/4 + k*(a*s - b*r) - k*b)/2)"],
            der=derived(("x", "2*ix + k*b*r - k*a*s - k*a*b/4 + k*b")),
        ),
    ],
})

# --- heis-VIII ----------------------------------------------------------------

manifolds.append({
    "manifold": "heis-VIII",
    "families": [
        family(
            1, "swapped block",
            params(("a", "int_odd"), ("b", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "quarter_odd")),
            [["-(a*b)", "k/4*b*(1 - a)", "k/4*a*(b - 1)"],
             ["0", "0", "a"], ["0", "b", "0"]],
            ["r", "s", "t"],
            [variant(ratio("a*a*b*b"))],
        ),
        family(
            2, "diagonal block",
            params(("a", "int_odd"), ("b", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "half_int")),
            [["a*b", "k/4*a*(b - 1)", "k/4*(1 - a)*b"],
             ["0", "a", "0"], ["0", "0", "b"]],
            ["r", "s", "t"],
            [
                variant(ratio("a*a*b*b"), ratio("a", "a*b*b"),
                        guard="abs(a) == 1 and abs(b) > 1"),
                variant(ratio("a*a*b*b"), ratio("b", "a*a*b"),
                        guard="abs(b) == 1 and abs(a) > 1"),
                variant(ratio("a*a*b*b")),
            ],
        ),
        family(
            3, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [CONSTANT],
        ),
    ],
})

# --- heis-X (both torsion variants) -------------------------------------------


def _heis_x_manifold(name, extra_half_constraint):
    fams = []
    shapes = [
        ("rotation block", [["qq", "0", "0"], ["0", "a", "b"], ["0", "-b", "a"]], "qq"),
        ("reflected block", [["-(qq)", "0", "0"], ["0", "a", "b"], ["0", "b", "-a"]], "-(qq)"),
    ]
    idx = 1
    for desc, shape, _corner in shapes:
        for shift, rdom in [("integral translation", "int"),
                            ("half-shifted translation", "half_odd")]:
            cons = ["(a + b) % 2 == 1"]
            if shift.startswith("half") and extra_half_constraint:
                cons.append("k % 4 == 0")
            fams.append(family(
                idx, f"{desc}, {shift}",
                params(("a", "int"), ("b", "int"), ("r", rdom), ("s", rdom), ("t", "rational")),
                shape, ["r", "s", "t"],
                [variant(ratio("qq*qq"))],
                constraints=cons,
                der=derived(("qq", "a*a + b*b")),
            ))
            idx += 1
    fams.append(family(
        idx, "constant map class",
        params(("r", "rational"), ("s", "rational"), ("t", "rational")),
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
        [CONSTANT],
    ))
    return {"manifold": name, "families": fams}


manifolds.append(_heis_x_manifold("heis-X-c1", True))
manifolds.append(_heis_x_manifold("heis-X-c3", False))

# --- heis-XIII (three torsion variants) ---------------------------------------

_x13_pos = [["qq", "-k/6*(qq + b - a)", "-k/6*(qq - 2*b - a)"],
            ["0", "a", "b"], ["0", "-b", "a + b"]]
# the (1,2) entry k/6*(qq + 2a + b) is pinned by the rotational equation
# D* a* = a*^2 D* (the a <-> b swapped variant is inconsistent with it)
_x13_neg = [["-(qq)", "k/6*(qq + 2*a + b)", "k/6*(qq - a + b)"],
            ["0", "a", "b"], ["0", "a + b", "-a"]]


def _heis_xiii_div3(name):
    return {
        "manifold": name,
        "families": [
            family(
                1, "order-3 twisted block",
                params(("a", "int"), ("b", "int"), ("s", "third_int"), ("ir", "int"),
                       ("t", "rational")),
                _x13_pos, ["r", "s", "t"],
                [variant(ratio("qq*qq"))],
                constraints=["(a - b) % 3 != 0", "is_int(r + s)", "is_int(2*s - r)"],
                der=derived(("r", "ir - s"), ("qq", "a*a + b*b + a*b")),
            ),
            family(
                2, "reversing twisted block",
                params(("a", "int"), ("b", "int"), ("r", "third_int"), ("is2", "int"),
                       ("t", "rational")),
                _x13_neg, ["r", "s", "t"],
                [variant(ratio("qq*qq"))],
                constraints=["(a - b) % 3 != 0", "is_int(r + s)", "is_int(2*r - s)"],
                der=derived(("s", "is2 - r"), ("qq", "a*a + b*b + a*b")),
            ),
            family(
                3, "constant map class",
                params(("r", "rational"), ("s", "rational"), ("t", "rational")),
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
                [CONSTANT],
            ),
        ],
    }


manifolds.append(_heis_xiii_div3("heis-XIII-c1"))
manifolds.append(_heis_xiii_div3("heis-XIII-c2"))

_x13k_pos = [["qq", "x", "y"], ["0", "a", "b"], ["0", "-b", "a + b"]]
_x13k_neg = [["-(qq)", "x3", "y3"], ["0", "a", "b"], ["0", "a + b", "-a"]]

manifolds.append({
    "manifold": "heis-XIII-k3",
    "families": [
        family(
            1, "order-3 twisted block, integral translation",
            params(("a", "int"), ("b", "int"), ("r", "int"), ("s", "int"), ("t", "rational")),
            _x13k_pos, ["r", "s", "t"],
            [variant(ratio("qq*qq"))],
            constraints=["(a - b) % 3 != 0", "is_int(x - k*a*b/2)"],
            der=derived(
                ("qq", "a*a + b*b + a*b"),
                ("x", "((2 - k/2)*(qq - a - b) - k*b + b)/3"),
                ("y", "((-1 - k/2)*(qq - a - b) + k*b/2 - 2*b)/3"),
            ),
        ),
        family(
            2, "order-3 twisted block, shifted translation",
            params(("a", "int"), ("b", "int"), ("r", "shift:2/3"), ("s", "shift:1/3"),
                   ("t", "rational")),
            _x13k_pos, ["r", "s", "t"],
            [variant(ratio("qq*qq"))],
            constraints=["(b - a) % 3 == 1", "k % 6 == 2"],
            der=derived(
                ("qq", "a*a + b*b + a*b"),
                ("x", "((2 - k/2)*(qq - a - b) - k*b + b)/3"),
                ("y", "((-1 - k/2)*(qq - a - b) + k*b/2 - 2*b)/3"),
            ),
        ),
        family(
            3, "reversing twisted block",
            # first-row entries and translation conditions solved from the
            # self-map equation for the torsion generator
            params(("a", "int"), ("b", "int"), ("r", "third_int"), ("s", "third_int"),
                   ("t", "rational")),
            _x13k_neg, ["r", "s", "t"],
            [variant(ratio("qq*qq"))],
            constraints=[
                "(a - b) % 3 != 0", "is_int(r + s)", "is_int(2*r - s)",
                "is_int((3*k*r*r + 6*k*r*s + 3*k*r - 6*k*s*s - 6*r + 6*s - 2*qq - 4)/6)",
                "is_int((4*a*a*k - 4*a*a + 4*a*b*k - 4*a*b - 6*a*k*r + 6*a*k*s"
                " + 2*a*k - 2*a + b*b*k - 4*b*b - 6*b*k*r + b*k + 2*b)/6)",
                "is_int((a*a*k + 2*a*a - 2*a*b*k + 2*a*b + 6*a*k*r - a*k - 2*a"
                " + b*b*k + 2*b*b + 6*b*k*s + b*k - 4*b)/6)",
            ],
            der=derived(
                ("qq", "a*a + b*b + a*b"),
                ("x3", "k*(qq + 2*a + b)/6 - (2*qq + a - b)/3"),
                ("y3", "k*(qq - a + b)/6 + (qq - a - 2*b)/3"),
            ),
        ),
        family(
            4, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [CONSTANT],
        ),
    ],
})

# --- heis-XVI (both torsion variants) ------------------------------------------

_x16_pos = [["qq", "-k/2*(qq - a - b)", "k/2*(qq - a)"],
            ["0", "a", "b"], ["0", "-b", "a + b"]]
_x16_neg = [["-(qq)", "k/2*(qq - b)", "-k/2*(qq - b - a)"],
            ["0", "a", "b"], ["0", "a + b", "-a"]]


def _heis_xvi(name):
    return {
        "manifold": name,
        "families": [
            family(
                1, "order-6 twisted block",
                params(("a", "int"), ("b", "int"), ("r", "int"), ("s", "int"), ("t", "rational")),
                _x16_pos, ["r", "s", "t"],
                [variant(ratio("qq*qq"))],
                constraints=["qq % 6 == 1"],
                der=derived(("qq", "a*a + b*b + a*b")),
            ),
            family(
                2, "reversing twisted block",
                params(("a", "int"), ("b", "int"), ("r", "int"), ("s", "int"), ("t", "rational")),
                _x16_neg, ["r", "s", "t"],
                [variant(ratio("qq*qq"))],
                constraints=["qq % 6 == 1"],
                der=derived(("qq", "a*a + b*b + a*b")),
            ),
            family(
                3, "constant map class",
                params(("r", "rational"), ("s", "rational"), ("t", "rational")),
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
                [CONSTANT],
            ),
        ],
    }


manifolds.append(_heis_xvi("heis-XVI-c1"))
manifolds.append(_heis_xvi("heis-XVI-c5"))


def main(out=OUT):
    data = {
        "schema": "infranil-families-v2",
        "comment": "Parametrized self-map families with expected Nielsen zeta tables. "
                   "Each variant holds one product per holonomy index ('1' or '2'): "
                   "the Nielsen zeta B for p and n even.  The other parities are "
                   "B(sigma z)^eps with sigma = (-1)^n and eps = (-1)^(p+n).  "
                   "Factors are polynomial coefficient expressions in the parameters "
                   "(ascending powers of z) with integer exponents.",
        "manifolds": manifolds,
    }
    path = os.path.normpath(out)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    nfam = sum(len(m["families"]) for m in manifolds)
    print(f"wrote {path}: {len(manifolds)} manifolds, {nfam} families")


if __name__ == "__main__":
    main(*sys.argv[1:2])
