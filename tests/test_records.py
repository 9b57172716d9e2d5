"""The package's records are NamedTuples or `records.Record` subclasses, not
dataclasses.  Each keeps the dataclass behaviour that callers see: its
fields are read-only, equal values compare and hash equal, and its repr is
the dataclass-era text (the expected strings below were printed by the
dataclass versions), except for CatalogEntry, HolonomyGroup and
PositivePart, whose fields changed since: a group element is its embedded
QMatrix, the entry also holds its generators' linear parts, the group holds
its elements in integer form, and the positive part no longer holds the
group.  `copy`, `deepcopy` and `pickle`
round-trip them, as they did the dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from infranil.catalog import CatalogEntry, HolonomyGroup
from infranil.fixedpoint import (
    FactorRoots,
    PositivePart,
    eigen_classify,
    exterior_data,
)
from infranil.matrices import QMatrix
from infranil.polynomials import IntPoly, QPoly
from infranil.selfmaps import Corpus, FamilySpec, MapCandidate, PhiAssignment, ZetaTemplate
from infranil.series import RatFuncProduct


def _affine(t):
    return QMatrix([[1, t], [0, 1]])


def _entry():
    return CatalogEntry("toy", 1, "abelian", (_affine(1),), (QMatrix([[1]]),), 1,
                        {"k": Fraction(2)})


def _group():
    flip = QMatrix([[-1, Fraction(1, 2)], [0, 1]])
    return HolonomyGroup((1, ((1,), (-1,))), ((0, 1), (1, 0)), (1,), (_affine(0), flip))


def _spec():
    return FamilySpec("circle", 1, "toy", (("a", "int"),), (("b", "2*a"),), ("a != 0",),
                      (("a",),), ("1/2",), (ZetaTemplate(None, {"1": [[["1", "-a"], 1]]}),))


_ENTRY = ("CatalogEntry(id='toy', dim=1, model='abelian', generators=([1, 1]\n[0, 1],), "
          "linear_parts=([1],), holonomy_order=1, params=mappingproxy({'k': Fraction(2, 1)}), "
          "notes='')")
_GROUP = ("HolonomyGroup(form=(1, ((1,), (-1,))), table=((0, 1), (1, 0)), generator_indices=(1,), "
          "representatives=([1, 0]\n[0, 1], [-1, 1/2]\n[0, 1]))")
_SPEC = ("FamilySpec(manifold='circle', index=1, desc='toy', params=(('a', 'int'),), "
         "derived=(('b', '2*a'),), constraints=('a != 0',), dstar=(('a',),), "
         "translation=('1/2',), "
         "zeta=(ZetaTemplate(guard=None, products={'1': [[['1', '-a'], 1]]}),))")
_SPECTRUM = ("EigenClass(charpoly=1 - 3*z + z^2, "
             "root_data=(FactorRoots(factor=1 - 3*z + z^2, multiplicity=1, "
             "real=('(-1,1)', '>1'), pair_class=None),), "
             "p=1, n=0, dim_gt1=1)")

# name: (make, hashable, repr)
CASES = {
    "IntPoly": (lambda: IntPoly([1, -2, 0, 3]), True, "1 - 2*z + 3*z^3"),
    "QPoly": (lambda: QPoly([Fraction(1, 2), 0, -1]), True, "1/2 - z^2"),
    "QMatrix": (lambda: QMatrix([[1, Fraction(1, 2)], [0, -1]]), True, "[1, 1/2]\n[0, -1]"),
    "RatFuncProduct": (lambda: RatFuncProduct(((IntPoly([1, -3]), 1), (IntPoly([1, -1]), -1))),
                       True, "(1 - 3*z) / (1 - z)"),
    "CatalogEntry": (_entry, False, _ENTRY),
    "HolonomyGroup": (_group, True, _GROUP),
    "MapCandidate": (lambda: MapCandidate(_entry(), (Fraction(1, 3),), QMatrix([[-2]])), False,
                     f"MapCandidate(entry={_ENTRY}, translation=(Fraction(1, 3),), dstar=[-2])"),
    "PhiAssignment": (lambda: PhiAssignment(((0, 0, (Fraction(1),)),)), True,
                      "PhiAssignment(entries=((0, 0, (Fraction(1, 1),)),))"),
    "ZetaTemplate": (lambda: ZetaTemplate("a > 0", {"2": [[["1", "-a"], -1]]}), False,
                     "ZetaTemplate(guard='a > 0', products={'2': [[['1', '-a'], -1]]})"),
    "FamilySpec": (_spec, False, _SPEC),
    "Corpus": (lambda: Corpus((_spec(),)), False, f"Corpus(families=({_SPEC},))"),
    "FactorRoots": (lambda: FactorRoots(IntPoly([-3, 1]), 1, (">1",), None), True,
                    "FactorRoots(factor=-3 + z, multiplicity=1, real=('>1',), pair_class=None)"),
    "EigenClass": (lambda: eigen_classify(QMatrix([[2, 1], [1, 1]])), True, _SPECTRUM),
    "ExteriorData": (lambda: exterior_data(QMatrix([[2, 1], [1, 1]])), True,
                     "ExteriorData(forms=((1, (1,)), (1, (2, 1, 1, 1)), (1, (1,))), "
                     f"det_polys=(1 - z, 1 - 3*z + z^2, 1 - z), spectrum={_SPECTRUM})"),
    "PositivePart": (lambda: PositivePart(2, (1, -1), (0,)), True,
                     "PositivePart(index=2, det_signs=(1, -1), plus_indices=(0,))"),
}

# A CatalogEntry's `params` is a read-only mappingproxy, which deepcopy and
# pickle refuse; the dataclass versions of these two refused them too.
_HOLDS_MAPPINGPROXY = {"CatalogEntry", "MapCandidate"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_is_immutable_valued_and_prints_as_before(name):
    make, hashable, text = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert not hasattr(type(a), "__dataclass_fields__")
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and a is not b and not (a != b)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == text
    copies = [copy.copy]
    if name not in _HOLDS_MAPPINGPROXY:
        copies += [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    for make_copy in copies:
        c = make_copy(a)
        assert type(c) is type(a) and c == a and repr(c) == text
        if hashable:
            assert hash(c) == hash(a)


def test_intpoly_caches_hash_and_stores_degree():
    p = IntPoly([5, 0, -1, 0, 0])
    assert p.coeffs == (5, 0, -1) and p.degree == 2
    assert IntPoly().degree == -1 and IntPoly([0, 0]).coeffs == ()
    assert hash(p) == hash(((5, 0, -1),)) == hash(p)
    assert IntPoly([5, 0, -1, 0]) == p
    with pytest.raises(AttributeError):
        p.degree = 3
