"""Every entry point that takes a number from outside reads it by one rule,
`sympoly.parse_rational`'s: a float, which holds only its binary
approximation, and a bool, which is no number, are refused with a
TypeError; text such as "1/2" is read exactly where a number may be text.
"""

from fractions import Fraction

import pytest

from diffres.determinant import common_zero_specialization, kernel_certifies
from diffres.diffsys import SystemSpec, generic_system
from diffres.lp import _integers, integer_certificate, matrix_rank, simplex
from diffres.matrices import build_square_matrix
from diffres.sparse import DEFAULT_LIFTINGS, Liftings, validate_liftings
from diffres.symbols import CoeffSymbol
from diffres.sympoly import Specialization, SymPoly

A0 = CoeffSymbol("a", 0, 0, 0)
HALF = Fraction(1, 2)
ZERO = (HALF, Fraction(-3, 4), Fraction(2))


def _kernel(x):
    M = build_square_matrix(SystemSpec(1, 1))
    rows, _ = M.specialize(common_zero_specialization((1, 1), ZERO))
    return kernel_certifies(rows, M.cols, (x,) + ZERO[1:])


# name -> (call with the number x, whether text is read as a number there)
ENTRY_POINTS = {
    "SymPoly": (lambda x: SymPoly({(): x}), True),
    "const": (lambda x: SymPoly.const(x), True),
    "symbol": (lambda x: SymPoly.symbol(A0, x), True),
    "add": (lambda x: SymPoly.one() + x, False),
    "evaluate": (lambda x: SymPoly.symbol(A0).evaluate({A0: x}), True),
    "Specialization": (lambda x: Specialization({A0: x}).to_json(), True),
    "_integers": (lambda x: _integers([[x, 2]]), True),   # [[True, 2]] was [[1, 2]]
    "simplex": (lambda x: simplex([[1, 1]], [x], [1, 1]), True),
    "matrix_rank": (lambda x: matrix_rank([[x, 1], [1, 2]]), True),
    "integer_certificate": (lambda x: integer_certificate([[1, -1]], [x]), True),
    "common_zero_specialization": (
        lambda x: common_zero_specialization((1, 1), (x,) + ZERO[1:]).to_json(),
        True),
    "kernel_certifies": (_kernel, True),
    "evaluate_point": (lambda x: generic_system((1, 1))[0].evaluate_point(
        (x,) + ZERO[1:]), True),
    "SystemSpec": (lambda x: SystemSpec(x, 2).validate(), False),
    "Liftings": (lambda x: validate_liftings(
        Liftings((x, -4, -5), *DEFAULT_LIFTINGS[1:])), False),
}


@pytest.mark.parametrize("value", [True, False, 0.1, 0.5],
                         ids=["true", "false", "float", "binary-float"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_float_or_a_bool_is_refused(name, value):
    # True would be read as 1, 0.1 as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        ENTRY_POINTS[name][0](value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_text_is_read_exactly_or_refused(name):
    make, reads_text = ENTRY_POINTS[name]
    if reads_text:
        assert make("1/2") == make(HALF)
    else:
        with pytest.raises(TypeError):
            make("1/2")


def test_the_kernel_check_holds_at_the_common_zero():
    assert _kernel(HALF) and _kernel("1/2")


def test_a_bool_is_not_a_constant_polynomial():
    assert SymPoly.one() != True and not (SymPoly.one() == True)
    assert SymPoly.one() == 1 and SymPoly({(): "2/2", ((A0, 1),): "0"}) == 1
    with pytest.raises(TypeError):
        True - SymPoly.one()

