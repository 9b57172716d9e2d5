#!/usr/bin/env python3
"""Generate src/infranil/data/families.json.

Each family row records: parameter domains (what instantiation admits and
the sampler draws), derived parameters, the constraints that the domains do
not imply, the linear-part template, the translation template, and the
expected Nielsen zeta table as guarded (index | p-parity | n-parity) cells
of symbolic factor lists.  A Heisenberg manifold's lattice parameter k and
its domain come from the catalog, not from this file.

The helpers below cover the table shapes that repeat across manifolds; every
deviation from a shared shape is written out explicitly.  Run from the repo
root:  python3 tools/gen_corpus.py [OUTPUT]  (default: the packaged file)
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


def qp(tr, det):
    """(1 + l1 z)(1 + l2 z) = 1 + tr z + det z^2"""
    return ["1", f"({tr})", f"({det})"]


def std_cells(u, index=1):
    """The single-expression table: (1-uz)/(1-z) and its three companions."""
    return {
        f"{index}|ee": [fac(lm(u)), fac(lm(1), -1)],
        f"{index}|eo": [fac(lp(1)), fac(lp(u), -1)],
        f"{index}|oe": [fac(lm(1)), fac(lm(u), -1)],
        f"{index}|oo": [fac(lp(u)), fac(lp(1), -1)],
    }


def ratio_cells(top, bottom, index=2):
    """(1 - top z)/(1 - bottom z) and companions, on the given index row."""
    return {
        f"{index}|ee": [fac(lm(top)), fac(lm(bottom), -1)],
        f"{index}|eo": [fac(lp(bottom)), fac(lp(top), -1)],
        f"{index}|oe": [fac(lm(bottom)), fac(lm(top), -1)],
        f"{index}|oo": [fac(lp(top)), fac(lp(bottom), -1)],
    }


def pair_cells(tr, det, index=1):
    """(1-l1 z)(1-l2 z) / ((1-z)(1-l1 l2 z)) and companions."""
    return {
        f"{index}|ee": [fac(qm(tr, det)), fac(lm(1), -1), fac(lm(det), -1)],
        f"{index}|eo": [fac(lp(1)), fac(lp(det)), fac(qp(tr, det), -1)],
        f"{index}|oe": [fac(lm(1)), fac(lm(det)), fac(qm(tr, det), -1)],
        f"{index}|oo": [fac(qp(tr, det)), fac(lp(1), -1), fac(lp(det), -1)],
    }


def scaled_pair_cells(e, tr, det, index=2):
    """(1-e z)(1-e*det z) / ((1-e l1 z)(1-e l2 z)) and companions."""
    sq_m = qm(f"({e})*({tr})", f"({e})*({e})*({det})")
    sq_p = qp(f"({e})*({tr})", f"({e})*({e})*({det})")
    return {
        f"{index}|ee": [fac(lm(e)), fac(lm(f"({e})*({det})")), fac(sq_m, -1)],
        f"{index}|eo": [fac(sq_p), fac(lp(e), -1), fac(lp(f"({e})*({det})"), -1)],
        f"{index}|oe": [fac(sq_m), fac(lm(e), -1), fac(lm(f"({e})*({det})"), -1)],
        f"{index}|oo": [fac(lp(e)), fac(lp(f"({e})*({det})")), fac(sq_p, -1)],
    }


def quad_ratio_cells(tr, det, scale, index=2):
    """(1-l1 z)(1-l2 z) / ((1-s l1 z)(1-s l2 z)) and companions."""
    top_m, top_p = qm(tr, det), qp(tr, det)
    bot_m = qm(f"({scale})*({tr})", f"({scale})*({scale})*({det})")
    bot_p = qp(f"({scale})*({tr})", f"({scale})*({scale})*({det})")
    return {
        f"{index}|ee": [fac(top_m), fac(bot_m, -1)],
        f"{index}|eo": [fac(bot_p), fac(top_p, -1)],
        f"{index}|oe": [fac(bot_m), fac(top_m, -1)],
        f"{index}|oo": [fac(top_p), fac(bot_p, -1)],
    }


def rotation_cells(u, v, sign, index=1):
    """(1-uz)(1 -+ u v z) / ((1-z)(1 -+ v z)) with the inner sign flipped when
    sign == -1 (the quarter/third-turn tables with negated block)."""
    if sign == 1:
        return {
            f"{index}|ee": [fac(lm(u)), fac(lm(f"({u})*({v})")), fac(lm(1), -1), fac(lm(v), -1)],
            f"{index}|eo": [fac(lp(1)), fac(lp(v)), fac(lp(u), -1), fac(lp(f"({u})*({v})"), -1)],
            f"{index}|oe": [fac(lm(1)), fac(lm(v)), fac(lm(u), -1), fac(lm(f"({u})*({v})"), -1)],
            f"{index}|oo": [fac(lp(u)), fac(lp(f"({u})*({v})")), fac(lp(1), -1), fac(lp(v), -1)],
        }
    return {
        f"{index}|ee": [fac(lm(u)), fac(lp(f"({u})*({v})")), fac(lm(1), -1), fac(lp(v), -1)],
        f"{index}|eo": [fac(lp(1)), fac(lm(v)), fac(lp(u), -1), fac(lm(f"({u})*({v})"), -1)],
        f"{index}|oe": [fac(lm(1)), fac(lp(v)), fac(lm(u), -1), fac(lp(f"({u})*({v})"), -1)],
        f"{index}|oo": [fac(lp(u)), fac(lm(f"({u})*({v})")), fac(lp(1), -1), fac(lm(v), -1)],
    }


def one_over_one_minus_z():
    return {"1|ee": [fac(lm(1), -1)]}


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


def variant(cells, guard=None):
    v = {"cells": cells}
    if guard is not None:
        v["guard"] = guard
    return v


def merge(*tables):
    out = {}
    for t in tables:
        out.update(t)
    return out


INT3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

manifolds = []

# --- circle ---------------------------------------------------------------

manifolds.append({
    "manifold": "circle",
    "families": [
        family(
            1, "degree-d map",
            params(("d", "int"), ("r", "rational")),
            [["d"]], ["r"],
            [variant(std_cells("d"))],
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
            [variant(pair_cells("tr", "q"))],
            der=derived(("tr", "m11 + m22"), ("q", "m11*m22 - m12*m21")),
        )
    ],
})

# --- torus-3 ---------------------------------------------------------------

_t3_num_m = ["1", "-(e1)", "(e2)", "-(e3)"]
_t3_num_p = ["1", "(e1)", "(e2)", "(e3)"]
_t3_den_m = ["1", "-(e2)", "(e1*e3)", "-(e3*e3)"]
_t3_den_p = ["1", "(e2)", "(e1*e3)", "(e3*e3)"]
_t3_cells = {
    "1|ee": [fac(_t3_num_m), fac(lm("e3")), fac(lm(1), -1), fac(_t3_den_m, -1)],
    "1|oe": [fac(lm(1)), fac(_t3_den_m), fac(_t3_num_m, -1), fac(lm("e3"), -1)],
    "1|eo": [fac(lp(1)), fac(_t3_den_p), fac(_t3_num_p, -1), fac(lp("e3"), -1)],
    "1|oo": [fac(_t3_num_p), fac(lp("e3")), fac(lp(1), -1), fac(_t3_den_p, -1)],
}
manifolds.append({
    "manifold": "torus-3",
    "families": [
        family(
            1, "integer matrix, free translation",
            params(*[(f"m{i}{j}", "int") for i in (1, 2, 3) for j in (1, 2, 3)],
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["m11", "m12", "m13"], ["m21", "m22", "m23"], ["m31", "m32", "m33"]],
            ["r", "s", "t"],
            [variant(_t3_cells)],
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

_kb_cells = merge(std_cells("a"), ratio_cells("b", "a*b", index=2))
manifolds.append({
    "manifold": "klein-bottle",
    "families": [
        family(
            1, "diagonal, both entries odd",
            params(("a", "int_odd"), ("b", "int_odd"), ("r", "rational"), ("s", "half_int")),
            [["a", "0"], ["0", "b"]], ["r", "s"],
            [variant(_kb_cells)],
        ),
        family(
            2, "diagonal, second entry even",
            params(("a", "int_odd"), ("b", "int_even"), ("r", "rational"), ("s", "quarter_odd")),
            [["a", "0"], ["0", "b"]], ["r", "s"],
            [variant(_kb_cells)],
        ),
        family(
            3, "rank-one, both entries even",
            params(("a", "int_even"), ("b", "int_even"), ("r", "rational"), ("s", "rational")),
            [["a", "0"], ["b", "0"]], ["r", "s"],
            [variant(std_cells("a"))],
        ),
    ],
})

# --- hantzsche-wendt --------------------------------------------------------

def _hw_alone(x, yz):
    return (f"(abs({x}) > 1 and abs({yz[0]}) <= 1 and abs({yz[1]}) <= 1)"
            f" or (abs({x}) <= 1 and abs({yz[0]}) > 1 and abs({yz[1]}) > 1)")


_hw_diag_zeta = [
    variant(merge(std_cells("a*b*c"), ratio_cells("a", "b*c", index=2)), _hw_alone("a", ("b", "c"))),
    variant(merge(std_cells("a*b*c"), ratio_cells("b", "a*c", index=2)), _hw_alone("b", ("a", "c"))),
    variant(merge(std_cells("a*b*c"), ratio_cells("c", "a*b", index=2)), _hw_alone("c", ("a", "b"))),
    variant(std_cells("a*b*c")),
]

# eigenvalues a and +-sqrt(bc): the swap families share this table
_hw_swap_cells = {
    "1|ee": [fac(lp("a*b*c")), fac(lm(1), -1)],
    "1|eo": [fac(lp(1)), fac(lm("a*b*c"), -1)],
    "1|oe": [fac(lm(1)), fac(lp("a*b*c"), -1)],
    "1|oo": [fac(lm("a*b*c")), fac(lp(1), -1)],
    "2|ee": [fac(lm("a")), fac(lp("b*c"), -1)],
    "2|eo": [fac(lm("b*c")), fac(lp("a"), -1)],
    "2|oe": [fac(lp("b*c")), fac(lm("a"), -1)],
    "2|oo": [fac(lp("a")), fac(lm("b*c"), -1)],
}

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
            [variant(_hw_swap_cells)],
        ),
        family(
            3, "swap of the first two axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "quarter_odd")),
            [["0", "b", "0"], ["c", "0", "0"], ["0", "0", "a"]], ["r", "s", "t"],
            [variant(_hw_swap_cells)],
        ),
        family(
            4, "swap of the outer axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "quarter_odd")),
            [["0", "0", "b"], ["0", "a", "0"], ["c", "0", "0"]], ["r", "s", "t"],
            [variant(_hw_swap_cells)],
        ),
        family(
            5, "three-cycle of the axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "half_int")),
            [["0", "a", "0"], ["0", "0", "b"], ["c", "0", "0"]], ["r", "s", "t"],
            [variant(std_cells("a*b*c"))],
        ),
        family(
            6, "opposite three-cycle of the axes",
            params(("a", "int_odd"), ("b", "int_odd"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "quarter_odd"), ("t", "quarter_odd")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "c", "0"]], ["r", "s", "t"],
            [variant(std_cells("a*b*c"))],
        ),
        family(
            7, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [variant(one_over_one_minus_z())],
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
            [variant(merge(
                # the q / e*q placement is pinned by the averaging formula,
                # L(f^k) = 1 + q^k - e^k - (e q)^k: the other placement gives
                # negative "Nielsen numbers" on complex-pair blocks
                {
                    "1|ee": [fac(lm("e")), fac(lm("e*q")), fac(lm(1), -1), fac(lm("q"), -1)],
                    "1|eo": [fac(lp(1)), fac(lp("q")), fac(lp("e"), -1), fac(lp("e*q"), -1)],
                    "1|oe": [fac(lm(1)), fac(lm("q")), fac(lm("e"), -1), fac(lm("e*q"), -1)],
                    "1|oo": [fac(lp("e")), fac(lp("e*q")), fac(lp(1), -1), fac(lp("q"), -1)],
                },
                quad_ratio_cells("tr", "q", "e", index=2),
            ))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            2, "rank-one with even entries",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
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
            [variant(pair_cells("tr", "q"))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            2, "rank <= 2 with even first column",
            params(("a", "int_even"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int_even"), ("f", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["a", "b", "0"], ["c", "d", "0"], ["e", "f", "0"]], ["r", "s", "t"],
            [variant(pair_cells("tr", "q"))],
            der=derived(("tr", "a + d"), ("q", "a*d - b*c")),
        ),
        family(
            3, "2x2 block plus axis",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int"), ("r", "rational"), ("s", "rational"), ("t", "half_int")),
            [["a", "b", "0"], ["c", "d", "0"], ["0", "0", "e"]], ["r", "s", "t"],
            [variant(merge(pair_cells("tr", "q"), scaled_pair_cells("e", "tr", "q", index=2)))],
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
            [variant(pair_cells("tr", "q"))],
            constraints=["is_int(s - t - d)"],
            der=derived(("t", "s - d + it"), ("tr", "a + 2*d"), ("q", "2*(a*d - b*c)")),
        ),
        family(
            2, "symmetric pair rows, integer diagonal",
            params(("a", "int_odd"), ("b", "half_odd"), ("c", "int_even"), ("d", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "d"], ["c", "d", "d"]], ["r", "s", "t"],
            [variant(pair_cells("tr", "q"))],
            constraints=["is_int(s - t)"],
            der=derived(("t", "s - it"), ("tr", "a + 2*d"), ("q", "2*(a*d - b*c)")),
        ),
        family(
            3, "rank <= 2 with even first column",
            params(("a", "int_even"), ("b", "int"), ("c", "int_even"), ("d", "int"),
                   ("e", "int_even"), ("f", "int"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["a", "b", "b"], ["c", "d", "d"], ["e", "f", "f"]], ["r", "s", "t"],
            [variant(pair_cells("tr", "q"))],
            der=derived(("tr", "a + d + f"), ("q", "a*d - b*c + a*f - b*e")),
        ),
        family(
            4, "symmetric block, odd corner",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_odd"), ("d", "int"), ("e", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "e"], ["c", "e", "d"]], ["r", "s", "t"],
            [variant(merge(pair_cells("tr", "q"), scaled_pair_cells("g", "tr", "q", index=2)))],
            constraints=["is_int(2*(s - t)) and not is_int(s - t)"],
            der=derived(("t", "s - it - 1/2"), ("tr", "a + d + e"),
                        ("q", "a*(d + e) - 2*b*c"), ("g", "d - e")),
        ),
        family(
            5, "symmetric block, even corner",
            params(("a", "int_odd"), ("b", "int"), ("c", "int_even"), ("d", "int"), ("e", "int"),
                   ("r", "rational"), ("s", "rational"), ("it", "int")),
            [["a", "b", "b"], ["c", "d", "e"], ["c", "e", "d"]], ["r", "s", "t"],
            [variant(merge(pair_cells("tr", "q"), scaled_pair_cells("g", "tr", "q", index=2)))],
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
        variant(std_cells(third), "abs(a) <= 1 and abs(b) <= 1"),
        variant(ratio_cells("a*b*c", "a*b", index=2), "abs(a) > 1 and abs(b) > 1"),
        variant(ratio_cells("a", f"a*({third})", index=2), "abs(a) > 1 and abs(b) <= 1"),
        variant(ratio_cells("b", f"b*({third})", index=2), "abs(b) > 1 and abs(a) <= 1"),
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
            [variant(merge(std_cells("c"), ratio_cells("a", "a*c", index=2)))],
        ),
        family(
            3, "even shear into the middle axis",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "half_int"), ("s", "rational"), ("t", "rational")),
            [["a", "0", "0"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(merge(std_cells("c"), ratio_cells("a", "a*c", index=2)))],
        ),
        family(
            4, "even shear into the first axes",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "half_int"), ("t", "rational")),
            [["a", "0", "0"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(merge(std_cells("c"), ratio_cells("a", "a*c", index=2)))],
        ),
        family(
            5, "odd cross shear",
            params(("a", "int_odd"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            6, "rank-one, all even",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
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
            [variant(merge(std_cells("c"), ratio_cells("a", "a*c", index=2)))],
        ),
        family(
            3, "even shear into the first axes",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_odd"),
                   ("r", "quarter_odd"), ("s", "quarter_odd"), ("t", "rational")),
            [["a", "0", "0"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(merge(std_cells("c"), ratio_cells("a", "a*c", index=2)))],
        ),
        family(
            4, "odd cross shear",
            params(("a", "int_odd"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "a"], ["b", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            5, "rank-one, all even",
            params(("a", "int_even"), ("b", "int_even"), ("c", "int_even"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
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
            [variant(rotation_cells("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            2, "rotation block, half-shifted translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:1"),
                   ("r", "half_odd"), ("s", "half_odd"), ("t", "rational")),
            _rot_plus, ["r", "s", "t"],
            [variant(rotation_cells("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            3, "reflection block, integral translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:3"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _rot_minus, ["r", "s", "t"],
            [variant(rotation_cells("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            4, "reflection block, half-shifted translation",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:4:3"),
                   ("r", "half_odd"), ("s", "half_odd"), ("t", "rational")),
            _rot_minus, ["r", "s", "t"],
            [variant(rotation_cells("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b")),
        ),
        family(
            5, "collapsed block",
            params(("c", "int_mod:4:2"), ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            6, "rank-one in multiples of four",
            params(("a", "int_multiple:4"), ("b", "int_multiple:4"), ("c", "int_multiple:4"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
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
        [variant(rotation_cells("c", "qq", sign))],
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
            [variant(std_cells("c"))],
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
            [variant(rotation_cells("c", "qq", 1))],
            der=derived(("qq", "a*a + b*b + a*b")),
        ),
        family(
            2, "reversing block",
            params(("a", "int"), ("b", "int"), ("c", "int_mod:6:5"),
                   ("r", "int"), ("s", "int"), ("t", "rational")),
            _hex_minus, ["r", "s", "t"],
            # the +-sqrt(a^2+ab+b^2) eigenvalue pair contributes here, so the
            # full reversing-block table applies, not the bare c-table
            [variant(rotation_cells("c", "qq", -1))],
            der=derived(("qq", "a*a + b*b + a*b")),
        ),
        family(
            3, "collapsed block, integral translation",
            params(("c", "int_mod:6:2,4"), ("r", "int"), ("s", "int"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            4, "collapsed block, (1/3, 2/3) shift",
            params(("c", "int_mod:6:2,4"), ("r", "shift:1/3"), ("s", "shift:2/3"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            5, "collapsed block, (2/3, 1/3) shift",
            params(("c", "int_mod:6:2,4"), ("r", "shift:2/3"), ("s", "shift:1/3"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            6, "collapsed block, half-integral translation",
            params(("c", "int_mod:6:3"), ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            _zero_block_c, ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
        family(
            7, "rank-one in multiples of six",
            params(("a", "int_multiple:6"), ("b", "int_multiple:6"), ("c", "int_multiple:6"),
                   ("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "a"], ["0", "0", "b"], ["0", "0", "c"]], ["r", "s", "t"],
            [variant(std_cells("c"))],
        ),
    ],
})

# --- heis-I ------------------------------------------------------------------

_heis_I_cells = {
    "1|ee": [fac(qm("tr", "dt")), fac(lm("dt*dt")), fac(lm(1), -1),
             fac(["1", "-(dt*tr)", "(dt*dt*dt)"], -1)],
    "1|oe": [fac(lm(1)), fac(["1", "-(dt*tr)", "(dt*dt*dt)"]),
             fac(qm("tr", "dt"), -1), fac(lm("dt*dt"), -1)],
    "1|eo": [fac(lp(1)), fac(["1", "(dt*tr)", "(dt*dt*dt)"]),
             fac(qp("tr", "dt"), -1), fac(lp("dt*dt"), -1)],
    "1|oo": [fac(qp("tr", "dt")), fac(lp("dt*dt")), fac(lp(1), -1),
             fac(["1", "(dt*tr)", "(dt*dt*dt)"], -1)],
}

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
            [variant(_heis_I_cells)],
            der=derived(
                ("x", "ix - k*(a*s - c*r + a*c/2)"),
                ("y", "iy - k*(b*s - d*r + b*d/2)"),
                ("tr", "a + d"), ("dt", "a*d - b*c"),
            ),
        )
    ],
})

# --- heis-II -----------------------------------------------------------------

_heis_II_plus = {
    "2|ee": [fac(qm("tr", "dt")), fac(["1", "-(dt*tr)", "(dt*dt*dt)"], -1)],
    "2|eo": [fac(["1", "(dt*tr)", "(dt*dt*dt)"]), fac(qp("tr", "dt"), -1)],
    "2|oe": [fac(["1", "-(dt*tr)", "(dt*dt*dt)"]), fac(qm("tr", "dt"), -1)],
    "2|oo": [fac(qp("tr", "dt")), fac(["1", "(dt*tr)", "(dt*dt*dt)"], -1)],
}

manifolds.append({
    "manifold": "heis-II",
    "families": [
        family(
            1, "block endomorphism of odd determinant",
            params(("a", "int"), ("b", "int"), ("c", "int"), ("d", "int"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "rational")),
            [["a*d - b*c", "0", "0"], ["0", "a", "b"], ["0", "c", "d"]],
            ["r", "s", "t"],
            [variant(merge(std_cells("dt*dt"), _heis_II_plus))],
            constraints=["(a*d - b*c) % 2 == 1"],
            der=derived(("tr", "a + d"), ("dt", "a*d - b*c")),
        ),
        family(
            2, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [variant(one_over_one_minus_z())],
        ),
    ],
})

# --- heis-IV -----------------------------------------------------------------

_heis_IV_1 = {
    "1|ee": [fac(lm("a")), fac(lm("a*a*b*b")), fac(lm(1), -1), fac(lm("a*b*b"), -1)],
    "1|eo": [fac(lp(1)), fac(lp("a*b*b")), fac(lp("a"), -1), fac(lp("a*a*b*b"), -1)],
    "1|oe": [fac(lm(1)), fac(lm("a*b*b")), fac(lm("a"), -1), fac(lm("a*a*b*b"), -1)],
    "1|oo": [fac(lp("a")), fac(lp("a*a*b*b")), fac(lp(1), -1), fac(lp("a*b*b"), -1)],
}

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
            [variant(merge(_heis_IV_1, ratio_cells("b", "a*a*b", index=2)))],
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
            [variant(std_cells("a"))],
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
            [variant(std_cells("a*a*b*b"))],
        ),
        family(
            2, "diagonal block",
            params(("a", "int_odd"), ("b", "int_odd"),
                   ("r", "half_int"), ("s", "half_int"), ("t", "half_int")),
            [["a*b", "k/4*a*(b - 1)", "k/4*(1 - a)*b"],
             ["0", "a", "0"], ["0", "0", "b"]],
            ["r", "s", "t"],
            [
                variant(merge(std_cells("a*a*b*b"), ratio_cells("a", "a*b*b", index=2)),
                        "abs(a) == 1 and abs(b) > 1"),
                variant(merge(std_cells("a*a*b*b"), ratio_cells("b", "a*a*b", index=2)),
                        "abs(b) == 1 and abs(a) > 1"),
                variant(std_cells("a*a*b*b")),
            ],
        ),
        family(
            3, "constant map class",
            params(("r", "rational"), ("s", "rational"), ("t", "rational")),
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
            [variant(one_over_one_minus_z())],
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
                [variant(std_cells("qq*qq"))],
                constraints=cons,
                der=derived(("qq", "a*a + b*b")),
            ))
            idx += 1
    fams.append(family(
        idx, "constant map class",
        params(("r", "rational"), ("s", "rational"), ("t", "rational")),
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
        [variant(one_over_one_minus_z())],
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
                [variant(std_cells("qq*qq"))],
                constraints=["(a - b) % 3 != 0", "is_int(r + s)", "is_int(2*s - r)"],
                der=derived(("r", "ir - s"), ("qq", "a*a + b*b + a*b")),
            ),
            family(
                2, "reversing twisted block",
                params(("a", "int"), ("b", "int"), ("r", "third_int"), ("is2", "int"),
                       ("t", "rational")),
                _x13_neg, ["r", "s", "t"],
                [variant(std_cells("qq*qq"))],
                constraints=["(a - b) % 3 != 0", "is_int(r + s)", "is_int(2*r - s)"],
                der=derived(("s", "is2 - r"), ("qq", "a*a + b*b + a*b")),
            ),
            family(
                3, "constant map class",
                params(("r", "rational"), ("s", "rational"), ("t", "rational")),
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
                [variant(one_over_one_minus_z())],
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
            [variant(std_cells("qq*qq"))],
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
            [variant(std_cells("qq*qq"))],
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
            [variant(std_cells("qq*qq"))],
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
            [variant(one_over_one_minus_z())],
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
                [variant(std_cells("qq*qq"))],
                constraints=["qq % 6 == 1"],
                der=derived(("qq", "a*a + b*b + a*b")),
            ),
            family(
                2, "reversing twisted block",
                params(("a", "int"), ("b", "int"), ("r", "int"), ("s", "int"), ("t", "rational")),
                _x16_neg, ["r", "s", "t"],
                [variant(std_cells("qq*qq"))],
                constraints=["qq % 6 == 1"],
                der=derived(("qq", "a*a + b*b + a*b")),
            ),
            family(
                3, "constant map class",
                params(("r", "rational"), ("s", "rational"), ("t", "rational")),
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], ["r", "s", "t"],
                [variant(one_over_one_minus_z())],
            ),
        ],
    }


manifolds.append(_heis_xvi("heis-XVI-c1"))
manifolds.append(_heis_xvi("heis-XVI-c5"))


def main(out=OUT):
    data = {
        "schema": "infranil-families-v1",
        "comment": "Parametrized self-map families with expected Nielsen zeta tables. "
                   "Cells are keyed '<index>|<p parity><n parity>' with e/o for even/odd; "
                   "factors are polynomial coefficient expressions in the parameters "
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
