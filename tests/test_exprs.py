import ast
import json
import re
from fractions import Fraction
from importlib import resources

import pytest

from infranil import exprs
from infranil.errors import ConstraintError
from infranil.exprs import eval_bool, eval_expr, eval_rational


def test_malformed_expression_raises_on_every_call():
    """A malformed expression of at most 80 characters is quoted whole."""
    size = exprs._parse.cache_info().currsize
    for text in ("a + * 2", "a +" + " 1 +" * 19 + "*"):  # 7 and 80 characters
        for _ in range(3):
            with pytest.raises(ConstraintError, match=re.escape(f"bad expression {text!r}: ")):
                eval_expr(text, {"a": Fraction(1)})
    assert exprs._parse.cache_info().currsize == size


def test_deeply_nested_expression_is_a_bad_expression():
    """An expression nested too deeply to parse ("r" then 3,000 "+0") or to
    evaluate (2,000 "1+") raises ConstraintError, as a syntax error does,
    not RecursionError.  The message quotes its first 80 characters and
    its length, not the whole text."""
    for text in ("r" + "+0" * 3000, "1+" * 2000 + "1"):
        with pytest.raises(ConstraintError, match="bad expression") as info:
            eval_expr(text, {"r": Fraction(1, 2)})
        assert f"{text[:80]!r}... ({len(text)} characters)" in str(info.value)
        assert len(str(info.value)) < 300
    assert eval_expr("r" + "+0" * 30, {"r": Fraction(1, 2)}) == Fraction(1, 2)


def test_cached_expression_reads_each_environment():
    text = "a * b - 1/2"
    assert eval_rational(text, {"a": Fraction(2), "b": Fraction(3)}) == Fraction(11, 2)
    assert eval_rational(text, {"a": Fraction(-1, 3), "b": Fraction(6)}) == Fraction(-5, 2)
    assert exprs._parse(text) is exprs._parse(text)
    assert eval_bool("is_int(a) and a > 0", {"a": Fraction(3)}) is True
    assert eval_bool("is_int(a) and a > 0", {"a": Fraction(1, 3)}) is False
    with pytest.raises(ConstraintError, match="unknown name"):
        eval_rational(text, {"a": Fraction(1)})
    assert eval_rational(text, {"a": Fraction(1), "b": Fraction(1)}) == Fraction(1, 2)


def test_zero_to_a_negative_power_is_a_division_by_zero():
    """`/` and `%` by zero, the only divisions in the language (it has no
    `**`), are each a ConstraintError, not a ZeroDivisionError."""
    env = {"d": Fraction(0)}
    for text in ("1 / d", "1 % d", "(d - 0) % d + 1"):
        with pytest.raises(ConstraintError, match="^division by zero in expression$"):
            eval_rational(text, env)
        with pytest.raises(ConstraintError, match="^division by zero in expression$"):
            eval_bool(f"{text} != 7", env)
    assert eval_rational("1 / d", {"d": Fraction(2, 3)}) == Fraction(3, 2)


def test_exponent_notation_is_not_a_rational():
    """A few characters of exponent notation would build an arbitrarily large
    number; integers, p/q and decimals still parse."""
    for text in ("1e3", "1E3", " 2.5e-1 ", "1e999999999"):
        with pytest.raises(ConstraintError, match="exponent notation"):
            exprs.parse_rational(text)
    assert exprs.parse_rational("12") == 12
    assert exprs.parse_rational("-7/4") == Fraction(-7, 4)
    assert exprs.parse_rational("0.5") == Fraction(1, 2)


def test_constructs_outside_the_language_are_refused():
    """`**`, `min`, `max` and unary `+` are not in the language, whatever
    their operands: each raises a ConstraintError naming the construct, on
    every call, before it builds a value."""
    env = {"a": Fraction(3, 2)}
    for text, name in (("2 ** 65", "operator Pow"), ("a ** 2", "operator Pow"),
                       ("(((2 ** 64) ** 64) ** 64) ** 64", "operator Pow"),
                       ("min(a, 1)", "call min"), ("max(a, 1)", "call max"),
                       ("+a", "unary operator UAdd"), ("1 - +a", "unary operator UAdd")):
        for _ in range(3):
            with pytest.raises(ConstraintError, match=f"^unsupported {re.escape(name)}"):
                eval_expr(text, env)
    assert eval_rational("abs(-a) + -a * 2 % 5", env) == Fraction(7, 2)


def test_helpers_take_one_argument():
    """`abs` and `is_int` take one positional argument; any other call of
    them is a ConstraintError, not the TypeError of the Python function."""
    env = {"a": Fraction(3, 2)}
    for text in ("abs()", "abs(a, 1)", "abs(x=a)", "is_int()", "is_int(a, a)"):
        with pytest.raises(ConstraintError, match=r"^unsupported call (abs|is_int)\(\.\.\.\)"):
            eval_expr(text, env)
    assert eval_bool("is_int(2 * a) and not is_int(a) and abs(-a) == a", env) is True


def test_packaged_expressions_stay_inside_the_language():
    """Every expression string in both packaged data files uses only what
    `_eval_node` admits, so a data edit that needs a refused construct
    fails here, not in a user's run."""
    unary = {ast.USub, ast.Not}
    binary = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Mod}
    compare = {ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE}
    plain = {ast.Expression, ast.Name, ast.Load, ast.BoolOp, ast.And, ast.Or, ast.Compare}
    keys = set()
    for name in ("catalog.json", "families.json"):
        data = json.loads(resources.files("infranil.data").joinpath(name).read_text())
        for key, text in expression_strings(data):
            keys.add(key)
            for node in ast.walk(ast.parse(text, mode="eval")):
                kind = type(node)
                if kind is ast.Constant:
                    ok = type(node.value) is int
                elif kind is ast.UnaryOp:
                    ok = type(node.op) in unary
                elif kind is ast.BinOp:
                    ok = type(node.op) in binary
                elif kind is ast.Call:
                    ok = (getattr(node.func, "id", None) in ("abs", "is_int")
                          and len(node.args) == 1 and not node.keywords)
                else:
                    ok = kind in plain | unary | binary | compare
                assert ok, (name, key, text, ast.dump(node))
    assert keys == {"rotation", "translation", "h", "phi", "dstar", "coeffs", "expr", "guard",
                    "constraints"}, keys


# The string fields of the data files that are not expressions.
TEXT_KEYS = {"schema", "comment", "id", "model", "notes", "name", "domain", "manifold", "desc"}


def expression_strings(data, key=None):
    """(key, text) for every string in the data that is not under a
    TEXT_KEYS key, with the nearest dict key it is held under."""
    if isinstance(data, dict):
        for k, v in data.items():
            if k not in TEXT_KEYS:
                yield from expression_strings(v, k)
    elif isinstance(data, list):
        for v in data:
            yield from expression_strings(v, key)
    elif isinstance(data, str):
        yield key, data


def test_and_or_stop_at_the_deciding_operand():
    """`and` and `or` evaluate left to right and stop at the first operand
    that decides, as Python does: a guard written before a division keeps
    the division from running at b = 0."""
    env = {"a": Fraction(1), "b": Fraction(0)}
    assert eval_expr("b != 0 and a / b > 1", env) is False
    assert eval_expr("b == 0 or a / b > 1", env) is True
    assert eval_bool("b != 0 and a / b > 1", env) is False
    for text in ("b == 0 and a / b > 1", "b != 0 or a / b > 1"):
        with pytest.raises(ConstraintError, match="^division by zero in expression$"):
            eval_expr(text, env)
    assert eval_expr("a > 0 and b == 0 and a / (b + 1) == 1", env) is True
