"""Safe evaluation of the small arithmetic/boolean expressions that appear in
the catalog and family-corpus data files, and the parameter domains that
both files use.

Expressions are Python syntax restricted to: rational arithmetic
(+ - * / ** and unary -), integer literals, parameter names, comparisons,
boolean operators, and the helpers abs/min/max/is_int.  Values are exact
Fractions; there is no float anywhere.  Every number a caller passes in
is admitted by one rule, `exact_number`; text enters through `parse_rational`.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import lru_cache, partial
from numbers import Rational
from operator import index

from .errors import ConstraintError, CorpusError, InfranilError


# A few characters must not build an arbitrarily large number: `a ** b`
# takes |b| up to MAX_EXPONENT, and a result of at most MAX_POWER_BITS bits
# in numerator and denominator, which also stops nested powers such as
# (((2 ** 64) ** 64) ** 64) ** 64.
MAX_EXPONENT = 64
MAX_POWER_BITS = 1 << 20


def exact_number(value, what: str = "value", integral: bool = False):
    """`value` as a Fraction (an int, with `integral`), admitted only if it
    is a `numbers.Rational` and not a bool, and integral with `integral`:
    an int, a Fraction (returned as it is), a numpy or sympy integer, a
    sympy rational.  Anything else (a float, NaN, a Decimal, a str, a bool,
    None) raises InfranilError naming it as `what`."""
    if type(value) is int:
        return value if integral else Fraction(value)
    if type(value) is Fraction and not integral:
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        num, den = index(value.numerator), index(value.denominator)
        if not integral:
            return Fraction(num, den)
        if den == 1:
            return num
    raise InfranilError(f"{what} {value!r} is not {'an integer' if integral else 'an exact rational'}")


def parse_rational(text) -> Fraction:
    """Parse "3", "-7/4", "1/2", "0.5" exactly; any other value goes
    through `exact_number`.  Exponent notation is refused: "1e999999999"
    would build a number of a billion digits."""
    if not isinstance(text, str):
        return exact_number(text)
    text = text.strip()
    if "e" in text or "E" in text:
        raise ConstraintError(f"not an exact rational (no exponent notation): {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstraintError(f"not an exact rational: {text!r}") from exc


def _is_int(x) -> bool:
    return x.denominator == 1


_HELPERS = {"abs": abs, "min": min, "max": max, "is_int": _is_int}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** int(b),  # integer exponents in bounds, checked first
}

_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise ConstraintError(f"only integer literals allowed, got {node.value!r}")
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise ConstraintError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.UnaryOp):
        val = _eval_node(node.operand, env)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return val
        if isinstance(node.op, ast.Not):
            return not val
        raise ConstraintError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        op = type(node.op)
        a = _eval_node(node.left, env)
        b = _eval_node(node.right, env)
        if op is ast.Pow:
            if not (isinstance(b, Fraction) and b.denominator == 1):
                raise ConstraintError("exponents must be integers")
            if abs(b) > MAX_EXPONENT:
                raise ConstraintError(f"exponent {b} exceeds {MAX_EXPONENT} in absolute value")
            if abs(b) * max(a.numerator.bit_length(), a.denominator.bit_length()) > MAX_POWER_BITS:
                raise ConstraintError(f"power exceeds {MAX_POWER_BITS} bits")
        if op in _BINOPS:
            try:
                return _BINOPS[op](a, b)
            except ZeroDivisionError as exc:
                raise ConstraintError("division by zero in expression") from exc
        raise ConstraintError(f"unsupported operator {op.__name__}")
    if isinstance(node, ast.BoolOp):
        vals = (_eval_node(v, env) for v in node.values)  # left to right, lazily
        return all(vals) if isinstance(node.op, ast.And) else any(vals)
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            right = _eval_node(comparator, env)
            fn = _CMPOPS.get(type(op))
            if fn is None:
                raise ConstraintError("unsupported comparison")
            if not fn(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _HELPERS:
            raise ConstraintError("only abs/min/max/is_int calls are allowed")
        args = [_eval_node(a, env) for a in node.args]
        return _HELPERS[node.func.id](*args)
    raise ConstraintError(f"unsupported expression node {type(node).__name__}")


# Syntax trees are parsed once per text (the data files hold a few hundred) and
# never mutated; a SyntaxError is not cached, so every call raises it again.
_parse = lru_cache(maxsize=1024)(partial(ast.parse, mode="eval"))


def eval_expr(text: str, env: dict):
    """Evaluate an expression string to a Fraction or bool, exactly.  An
    expression nested too deeply to parse or to evaluate (a RecursionError)
    is a bad expression, as a syntax error is."""
    try:
        return _eval_node(_parse(text), env)
    except (SyntaxError, RecursionError) as exc:
        raise ConstraintError(f"bad expression {text!r}: {exc}") from exc


def eval_rational(text, env) -> Fraction:
    value = eval_expr(str(text), env)
    if isinstance(value, bool):
        raise ConstraintError(f"expected a number from {text!r}")
    return exact_number(value, f"value of {text!r}")


def eval_bool(text, env) -> bool:
    value = eval_expr(str(text), env)
    if not isinstance(value, bool):
        raise ConstraintError(f"expected a condition from {text!r}")
    return value


# ---------------------------------------------------------------------------
# Parameter domains
# ---------------------------------------------------------------------------


def _residues(text: str) -> tuple:
    """(m, residues) of "m:r1,r2,...": a positive modulus and integers."""
    m, residues = text.split(":")
    if (m := int(m)) < 1:
        raise ValueError(f"modulus {m} is not positive")
    return m, frozenset(int(r) for r in residues.split(","))


def _fractions(text: str) -> tuple:
    return tuple(parse_rational(v) for v in text.split())


def _grids(small, large):
    """(small, large) sample grids that do not depend on the domain's
    argument."""
    return lambda arg: (small, large)


def _shift_grids(base):
    return [base - 1, base, base + 1], [base + 7, base - 8]


_INTS = _grids(range(-5, 6), range(7, 24))
_HALVES = [Fraction(v, 2) for v in range(-3, 4)]

# The domain language, e.g. "int_odd", "int_mod:4:1,3" or "shift:1/3".  Per
# kind (the text before the first ':'): its membership test, (value, arg) ->
# bool, and its sample grids, arg -> (small, large), where arg is the text
# after the ':' as `_ARGUMENTS` parses it.  A domain's samples are the
# members of its grid, in grid order.
_DOMAINS = {
    "int": (lambda v, arg: _is_int(v), _INTS),
    "int_odd": (lambda v, arg: _is_int(v) and v % 2 == 1, _INTS),
    "int_even": (lambda v, arg: _is_int(v) and v % 2 == 0, _INTS),
    "int_mod": (lambda v, arg: _is_int(v) and v % arg[0] in arg[1], _INTS),
    "int_pos_mod": (lambda v, arg: _is_int(v) and v > 0 and v % arg[0] in arg[1],
                    _grids(range(1, 13), range(7, 36))),
    "int_multiple": (lambda v, arg: _is_int(v) and v % arg[0] == 0, _INTS),
    "rational": (lambda v, arg: True,
                 _grids(_fractions("0 1 -1 1/2 -2/3 5/4 2"), _fractions("17/3 -23/4"))),
    "half_int": (lambda v, arg: _is_int(2 * v), _grids(_HALVES, _fractions("15/2 -9"))),
    "half_odd": (lambda v, arg: _is_int(2 * v) and 2 * v % 2 == 1,
                 _grids(_HALVES, _fractions("17/2 -15/2"))),
    "quarter_odd": (lambda v, arg: _is_int(4 * v) and 4 * v % 2 == 1,
                    _grids([Fraction(v, 4) for v in range(-3, 4)], _fractions("29/4 -19/4"))),
    "third_int": (lambda v, arg: _is_int(3 * v),
                  _grids([Fraction(v, 3) for v in range(-4, 5)], _fractions("22/3 -26/3"))),
    "shift": (lambda v, arg: _is_int(v - arg), _shift_grids),
}
# The kinds that read their argument (int_multiple:m as the residue 0 mod m).
_ARGUMENTS = {"int_mod": _residues, "int_pos_mod": _residues, "shift": parse_rational,
              "int_multiple": lambda arg: _residues(arg + ":0")}


@lru_cache(maxsize=256)
def parse_domain(domain: str):
    """(membership test, sample grids, parsed argument) of a domain string.
    Raises CorpusError for an unknown kind or a bad argument: int_mod and
    int_pos_mod take "m:r1,r2,...", int_multiple "m" (m >= 1), shift a rational."""
    kind, _, arg = domain.partition(":")
    if kind not in _DOMAINS:
        raise CorpusError(f"unknown parameter domain {domain!r}")
    try:
        arg = _ARGUMENTS.get(kind, str)(arg)
    except (ValueError, ConstraintError) as exc:
        raise CorpusError(f"parameter domain {domain!r} has a bad argument ({exc})") from None
    return *_DOMAINS[kind], arg


def in_domain(domain: str, value) -> bool:
    """Whether a Fraction lies in a parameter's domain."""
    member, _, arg = parse_domain(domain)
    return member(value, arg)


def domain_values(domain: str, large: bool = False):
    """The members of a domain's small or large sample grid, as strings."""
    member, grids, arg = parse_domain(domain)
    return [str(v) for v in grids(arg)[large] if member(v, arg)]
