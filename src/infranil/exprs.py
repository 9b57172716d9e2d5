"""Safe evaluation of the small arithmetic/boolean expressions that appear in
the catalog and family-corpus data files.

Expressions are Python syntax restricted to: rational arithmetic
(+ - * / ** and unary -), integer literals, parameter names, comparisons,
boolean operators, and the helpers abs/min/max/is_int.  Values are exact
Fractions; there is no float anywhere.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import lru_cache, partial

from .errors import ConstraintError


def parse_rational(text) -> Fraction:
    """Parse "3", "-7/4", "1/2" (or pass through ints/Fractions) exactly."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstraintError(f"not an exact rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _is_int(x) -> bool:
    return Fraction(x).denominator == 1


_HELPERS = {"abs": abs, "min": min, "max": max, "is_int": _is_int}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: None,  # handled separately (integer exponents only)
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
            return a ** int(b)
        if op in _BINOPS and _BINOPS[op] is not None:
            try:
                return _BINOPS[op](a, b)
            except ZeroDivisionError as exc:
                raise ConstraintError("division by zero in expression") from exc
        raise ConstraintError(f"unsupported operator {op.__name__}")
    if isinstance(node, ast.BoolOp):
        vals = [_eval_node(v, env) for v in node.values]
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
    """Evaluate an expression string to a Fraction or bool, exactly."""
    try:
        tree = _parse(text)
    except SyntaxError as exc:
        raise ConstraintError(f"bad expression {text!r}: {exc}") from exc
    return _eval_node(tree, env)


def eval_rational(text, env) -> Fraction:
    value = eval_expr(str(text), env)
    if isinstance(value, bool):
        raise ConstraintError(f"expected a number from {text!r}")
    return Fraction(value)


def eval_bool(text, env) -> bool:
    value = eval_expr(str(text), env)
    if not isinstance(value, bool):
        raise ConstraintError(f"expected a condition from {text!r}")
    return value
