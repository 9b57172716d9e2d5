import re
from fractions import Fraction

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
    """`/`, `%` and a negative power of zero all divide by zero: each is a
    ConstraintError, not a ZeroDivisionError."""
    env = {"d": Fraction(0)}
    for text in ("1 / d", "1 % d", "d ** -1", "(d - 0) ** (-2) + 1"):
        with pytest.raises(ConstraintError, match="^division by zero in expression$"):
            eval_rational(text, env)
        with pytest.raises(ConstraintError, match="^division by zero in expression$"):
            eval_bool(f"{text} != 7", env)
    assert eval_rational("d ** -1", {"d": Fraction(2, 3)}) == Fraction(3, 2)
    assert eval_rational("d ** 0", env) == 1


def test_exponent_notation_is_not_a_rational():
    """A few characters of exponent notation would build an arbitrarily large
    number; integers, p/q and decimals still parse."""
    for text in ("1e3", "1E3", " 2.5e-1 ", "1e999999999"):
        with pytest.raises(ConstraintError, match="exponent notation"):
            exprs.parse_rational(text)
    assert exprs.parse_rational("12") == 12
    assert exprs.parse_rational("-7/4") == Fraction(-7, 4)
    assert exprs.parse_rational("0.5") == Fraction(1, 2)


def test_power_exponent_is_bounded():
    """`a ** b` takes |b| up to MAX_EXPONENT; past it, a ConstraintError
    rather than a number too large to hold."""
    for text in ("2 ** 65", "2 ** -65", "3 ** 10 ** 10"):
        with pytest.raises(ConstraintError, match="exceeds 64"):
            eval_rational(text, {})
    assert exprs.MAX_EXPONENT == 64
    assert eval_rational("2 ** 64", {}) == 2 ** 64
    assert eval_rational("2 ** -64", {}) == Fraction(1, 2 ** 64)


def test_nested_powers_are_bounded_by_their_size():
    """Each `**` below takes an exponent of 64, but the fourth level would
    hold 2 ** (64 ** 4) = 2 ** 16,777,216: past MAX_POWER_BITS, so it is
    refused before it is formed."""
    assert eval_rational("((2 ** 64) ** 64) ** 64", {}) == 2 ** (64 ** 3)
    assert eval_rational("(a ** 64) ** -2", {"a": Fraction(3, 2)}) == Fraction(2, 3) ** 128
    for text in ("(((2 ** 64) ** 64) ** 64) ** 64", "(((1/2 ** 64) ** 64) ** 64) ** 64"):
        with pytest.raises(ConstraintError, match="power exceeds 1048576 bits"):
            eval_rational(text, {})


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
