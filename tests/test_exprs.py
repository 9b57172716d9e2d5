from fractions import Fraction

import pytest

from infranil import exprs
from infranil.errors import ConstraintError
from infranil.exprs import eval_bool, eval_expr, eval_rational


def test_malformed_expression_raises_on_every_call():
    size = exprs._parse.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ConstraintError, match="bad expression"):
            eval_expr("a + * 2", {"a": Fraction(1)})
    assert exprs._parse.cache_info().currsize == size


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
