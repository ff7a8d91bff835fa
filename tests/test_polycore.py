import random
from fractions import Fraction

import pytest
import sympy

from turancover.errors import InputError
from turancover.polycore import Polynomial, product, vandermonde


def d(i, j, n=3):
    return Polynomial.difference(i, j, n)


def to_sympy(p):
    syms = sympy.symbols(f"x1:{p.nvars + 1}")
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Integer(c)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr), syms


def random_poly(rng, nvars=3, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[exps] = rng.randint(-5, 5)
    return Polynomial(nvars, terms)


def test_difference_of_squares():
    x1_plus_x2 = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert d(1, 2) * x1_plus_x2 == Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1})


def test_mul_by_zero_absorbs():
    assert (d(1, 2) * Polynomial.zero(3)).is_zero


def test_triple_difference_product_shape():
    p = d(1, 2) * d(2, 3) * d(1, 3)
    assert len(p) == 6
    assert p.degree_info() == (3, True)
    # cross-check full expansion against sympy
    expr, (x1, x2, x3) = to_sympy(p)
    assert sympy.simplify(expr - sympy.expand((x1 - x2) * (x2 - x3) * (x1 - x3))) == 0


def test_mul_matches_sympy_on_random_inputs():
    rng = random.Random(5)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        got, syms = to_sympy(p * q)
        ep, _ = to_sympy(p)
        eq, _ = to_sympy(q)
        assert sympy.expand(ep * eq - got) == 0


def test_mul_arity_mismatch():
    with pytest.raises(InputError):
        Polynomial.one(2) * Polynomial.one(3)


def test_power_rule():
    assert (d(1, 2) * d(1, 2)).derivative(1) == Polynomial(3, {(1, 0, 0): 2, (0, 1, 0): -2})


def test_derivative_degree_drop():
    assert d(1, 2).derivative(1, 2).is_zero


def test_derivative_order_zero_is_identity():
    rng = random.Random(9)
    p = random_poly(rng)
    assert p.derivative(2, 0) == p


def test_derivative_matches_sympy():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng)
        for i in (1, 2, 3):
            for order in (1, 2):
                got, syms = to_sympy(p.derivative(i, order))
                want, _ = to_sympy(p)
                assert sympy.expand(sympy.diff(want, syms[i - 1], order) - got) == 0


def test_identify_kills_difference():
    assert d(1, 2).identify({1, 2}).is_zero


def test_identify_substitutes_to_minimum():
    p = d(1, 2) * d(2, 3)
    q = p.identify({1, 3})
    assert q == d(1, 2) * d(2, 1)


def test_identify_can_leave_polynomial_unchanged():
    p = Polynomial.difference(1, 2, 4)
    assert p.identify({2, 3}) == p
    assert not p.identify({2, 3}).is_zero


def test_identify_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        S = {1, 3}
        assert (p * q).identify(S) == p.identify(S) * q.identify(S)


def test_leibniz_rule():
    rng = random.Random(17)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        i = rng.randint(1, 3)
        got, syms = to_sympy((p * q).derivative(i))
        ep, _ = to_sympy(p)
        eq, _ = to_sympy(q)
        assert sympy.expand(sympy.diff(ep * eq, syms[i - 1]) - got) == 0


def test_derivative_commutes_with_identification_outside():
    rng = random.Random(23)
    for _ in range(20):
        p = random_poly(rng, nvars=4)
        S = {2, 4}
        assert p.derivative(1).identify(S) == p.identify(S).derivative(1)


def test_degree_additivity():
    rng = random.Random(29)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_degree_info_cases():
    assert Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1}).degree_info() == (2, True)
    assert Polynomial(3, {(2, 0, 0): 1, (0, 1, 0): -1}).degree_info() == (2, False)
    assert Polynomial.zero(3).degree_info() == (None, True)


def test_vandermonde_term_count():
    # n! terms, one per permutation
    assert len(vandermonde(4)) == 24
    assert vandermonde(4).degree_info() == (6, True)


def test_invariants_reject_zero_coefficients():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms


def test_empty_product_is_one():
    assert product([], 3) == Polynomial.one(3)


# ---------------------------------------------------------------------------
# coefficient representation


def int_coefficients(p):
    return all(type(c) is int for c in p.terms.values())


def test_integer_input_gives_int_coefficients():
    p = vandermonde(4)
    assert int_coefficients(p)
    assert int_coefficients(product([p, Polynomial.difference(1, 3, 4)], 4))
    for i in range(1, 5):
        for order in (1, 2, 3):
            assert int_coefficients(p.derivative(i, order))
    assert int_coefficients(p.identify({1, 2}))


def test_constructor_rejects_bad_terms():
    with pytest.raises(InputError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(InputError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(InputError):
        Polynomial(0, {})
    for coeff in (Fraction(1, 2), Fraction(2, 1), 0.5):
        with pytest.raises(InputError):
            Polynomial(2, {(1, 0): coeff})


def test_polynomial_is_a_frozen_unhashable_value():
    """A polynomial is its (nvars, terms), whether the checked constructor or
    arithmetic (`_from_terms`) built it; it cannot be changed, and its dict
    of terms keeps it out of sets and dict keys."""
    square = Polynomial(3, {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 1, (0, 0, 1): 0})
    for p in (d(1, 2) * d(1, 2), d(2, 1) * d(2, 1), product([d(1, 2), d(1, 2)], 3)):
        assert p == square and p.terms == square.terms
    assert d(1, 2) == Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): -1}) != d(2, 1)
    assert Polynomial(3) == Polynomial(3, {(1, 0, 0): 0}) == Polynomial.zero(3) != Polynomial(2)
    for p in (square, d(1, 2) * d(1, 2), Polynomial.zero(3)):
        assert p != p.terms and p != 0 and p != (p.nvars, p.terms) and p != None  # noqa: E711
        with pytest.raises(TypeError):
            hash(p)
        for attr in ("nvars", "terms"):
            with pytest.raises(AttributeError):
                setattr(p, attr, getattr(p, attr))
            with pytest.raises(AttributeError):
                delattr(p, attr)
    assert square.nvars == 3 and len(square) == 3
