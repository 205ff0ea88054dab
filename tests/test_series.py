import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popsort import series
from popsort.perms import contains_values
from popsort.series import PowerSeries, closed_form, components, fixed_point


rational_st = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
nonzero_rational_st = rational_st.filter(bool)


def coeffs_st(order):
    return st.lists(rational_st, min_size=order + 1, max_size=order + 1)


def series_st(order=12, unit_constant=False, nonzero_constant=False):
    def build(coeffs):
        if unit_constant:
            coeffs[0] = Fraction(1)
        elif nonzero_constant and coeffs[0] == 0:
            coeffs[0] = Fraction(1, 3)
        return PowerSeries(tuple(coeffs))

    return coeffs_st(order).map(build)


# The Fraction loops the integer kernel replaced, kept as its reference.

def reference_mul(a, b):
    n = min(len(a), len(b)) - 1
    return tuple(
        sum((a[t] * b[k - t] for t in range(k + 1)), Fraction(0)) for k in range(n + 1)
    )


def reference_div(a, b):
    kb = next(k for k, c in enumerate(b) if c)
    a, b = a[kb:], b[kb:]
    n = min(len(a), len(b)) - 1
    inv0 = 1 / Fraction(b[0])
    q = []
    for k in range(n + 1):
        acc = a[k] - sum((q[t] * b[k - t] for t in range(k)), Fraction(0))
        q.append(acc * inv0)
    return tuple(q)


def reference_sqrt(a):
    s = [Fraction(1)]
    for k in range(1, len(a)):
        acc = a[k] - sum((s[t] * s[k - t] for t in range(1, k)), Fraction(0))
        s.append(acc / 2)
    return tuple(s)


@st.composite
def dividend_divisor_st(draw):
    """Two series of orders 0-14; the divisor has 0-3 leading zeros, and
    the dividend at least as many."""
    a = draw(st.integers(0, 14).flatmap(coeffs_st))
    b = draw(st.integers(0, 14).flatmap(coeffs_st))
    zeros = draw(st.integers(0, min(3, len(a) - 1, len(b) - 1)))
    a[:zeros] = [Fraction(0)] * zeros
    b[:zeros] = [Fraction(0)] * zeros
    b[zeros] = draw(nonzero_rational_st)
    return PowerSeries(tuple(a)), PowerSeries(tuple(b))


def all_fractions(s):
    return all(type(c) is Fraction for c in s.coeffs)


def brute_force_sortable_count(n: int) -> int:
    """Independent oracle: count Av(2431, 3142, 3241) directly."""
    basis = [(2, 4, 3, 1), (3, 1, 4, 2), (3, 2, 4, 1)]
    return sum(
        1
        for vals in itertools.permutations(range(1, n + 1))
        if not any(contains_values(b, vals) for b in basis)
    )


class TestArithmetic:
    def test_product_of_conjugates(self):
        one_plus = PowerSeries.from_coeffs([1, 1], 4)
        one_minus = PowerSeries.from_coeffs([1, -1], 4)
        assert one_plus * one_minus == PowerSeries.from_coeffs([1, 0, -1], 4)

    def test_additive_identity(self):
        a = PowerSeries.from_coeffs([3, 1, 4], 4)
        assert a + PowerSeries.constant(0, 4) == a

    def test_x_squared(self):
        x = PowerSeries.x(4)
        assert x * x == PowerSeries.from_coeffs([0, 0, 1], 4)

    def test_mixed_orders_truncate_to_minimum(self):
        a = PowerSeries.from_coeffs([1, 1, 1, 1], 3)
        b = PowerSeries.from_coeffs([1, 1], 1)
        assert (a + b).order == 1

    def test_scalar_coercion(self):
        x = PowerSeries.x(3)
        assert (1 - x) == PowerSeries.from_coeffs([1, -1], 3)
        assert (2 * x)[1] == 2

    @given(st.integers(0, 8).flatmap(coeffs_st), st.integers(0, 8).flatmap(coeffs_st),
           st.one_of(rational_st, st.integers(-9, 9)))
    def test_difference_adds_the_negation(self, a, b, c):
        a, b = PowerSeries(tuple(a)), PowerSeries(tuple(b))
        for got, want in ((a - b, a + (-b)), (c - a, (-a) + c), (a - c, a + (-c))):
            assert got.coeffs == want.coeffs
            assert all_fractions(got)


class TestDivision:
    def test_shift_out_common_leading_zero(self):
        x = PowerSeries.x(5)
        q = (x + x * x) / x
        assert q == PowerSeries.from_coeffs([1, 1], 4)

    def test_geometric_series(self):
        x = PowerSeries.x(6)
        q = 1 / (1 - x)
        assert q.coeffs == tuple(Fraction(1) for _ in range(7))

    def test_alternating_series(self):
        x = PowerSeries.x(6)
        q = x / (1 + x)
        assert q == PowerSeries.from_coeffs([0, 1, -1, 1, -1, 1, -1], 6)
        assert q * (1 + x) == x.truncate(q.order)

    def test_negative_powers_rejected(self):
        x = PowerSeries.x(4)
        with pytest.raises(ValueError, match="leading zero"):
            (1 + x) / x

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries.x(3) / PowerSeries.constant(0, 3)

    @given(series_st(order=10, nonzero_constant=True), series_st(order=10, nonzero_constant=True))
    def test_division_inverts_multiplication(self, a, b):
        assert (a / b) * b == a


class TestSqrt:
    def test_perfect_square(self):
        a = PowerSeries.from_coeffs([1, 2, 1], 5)
        assert a.sqrt() == PowerSeries.from_coeffs([1, 1], 5)

    def test_sqrt_of_one(self):
        one = PowerSeries.constant(1, 5)
        assert one.sqrt() == one

    def test_radicand_expansion(self):
        s = PowerSeries.from_coeffs([1, -6, 5], 3).sqrt()
        assert s == PowerSeries.from_coeffs([1, -3, -2, -6], 3)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            PowerSeries.from_coeffs([4, 1], 3).sqrt()

    @given(series_st(order=10, unit_constant=True))
    def test_square_of_sqrt(self, a):
        s = a.sqrt()
        assert s * s == a


class TestKernelMatchesReference:
    @settings(max_examples=300)
    @given(st.integers(0, 14).flatmap(coeffs_st), st.integers(0, 14).flatmap(coeffs_st))
    def test_product(self, a, b):
        got = PowerSeries(tuple(a)) * PowerSeries(tuple(b))
        assert got.coeffs == reference_mul(a, b)
        assert all_fractions(got)

    @settings(max_examples=300)
    @given(dividend_divisor_st())
    @example((PowerSeries.from_coeffs([1, 2, 3], 2), PowerSeries.from_coeffs([-3, 1, 1], 2)))
    @example((PowerSeries.from_coeffs([0, 0, 5, 1], 3),
              PowerSeries.from_coeffs([0, 0, Fraction(-7, 2), 3], 3)))
    def test_quotient(self, ab):
        a, b = ab
        got = a / b
        assert got.coeffs == reference_div(a.coeffs, b.coeffs)
        assert all_fractions(got)

    @settings(max_examples=200)
    @given(st.integers(0, 14).flatmap(coeffs_st))
    def test_square_root(self, coeffs):
        a = PowerSeries((Fraction(1), *coeffs[1:]))
        got = a.sqrt()
        assert got.coeffs == reference_sqrt(a.coeffs)
        assert all_fractions(got)

    def test_integer_inputs_give_fractions(self):
        x = PowerSeries.x(3)
        for got in (x * x, x / (1 - 2 * x), (1 - 6 * x).sqrt()):
            assert all_fractions(got)


class TestClosedForm:
    def test_short_lengths_are_factorials(self):
        coeffs = closed_form(3).integer_coefficients()
        assert coeffs[1:] == [1, 2, 6]

    def test_length_four_count(self):
        assert closed_form(4).integer_coefficients()[4] == brute_force_sortable_count(4) == 21

    def test_matches_brute_force_to_seven(self):
        coeffs = closed_form(7).integer_coefficients()
        for n in range(1, 8):
            assert coeffs[n] == brute_force_sortable_count(n)

    def test_constant_term_vanishes(self):
        assert closed_form(10)[0] == 0

    def test_terms_guard(self):
        with pytest.raises(ValueError):
            closed_form(0)


class TestFixedPoint:
    def test_first_order(self):
        assert fixed_point(1) == PowerSeries.from_coeffs([0, 1], 1)

    def test_to_order_four(self):
        assert fixed_point(4) == PowerSeries.from_coeffs([0, 1, 2, 6, 21], 4)

    def test_agrees_with_closed_form(self):
        # Newton orders double 1 -> 3 -> 7 -> 15 -> 31 -> 63, and the last
        # round is cut to `terms`: 3, 4, 7, 8, ... sit on either side of a cut
        for terms in (1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 20, 31, 32, 33, 40, 64):
            assert fixed_point(terms) == closed_form(terms)

    def test_right_side_evaluations_grow_with_bit_length(self, monkeypatch):
        calls = []
        rhs = series._rhs

        def spy(f, x):
            calls.append(f.order)
            return rhs(f, x)

        monkeypatch.setattr(series, "_rhs", spy)
        fixed_point(200)
        assert len(calls) <= (200).bit_length() + 2, calls

    def test_exit_needs_a_zero_residual(self, monkeypatch):
        # a slope of -1 turns the Newton step back into f <- rhs(f), one
        # coefficient per round: the round limit must stop it, never a return
        monkeypatch.setattr(series, "_slope", lambda f, x: PowerSeries.constant(-1, f.order))
        with pytest.raises(AssertionError, match="did not settle"):
            fixed_point(40)


class TestComponents:
    def test_functional_equation(self):
        terms = 10
        c = components(terms)
        x = PowerSeries.x(terms)
        assert x + c.sum_part + c.skew_part + c.alternation_part == closed_form(terms)

    def test_sum_part_lowest_coefficient(self):
        assert components(5).sum_part.integer_coefficients()[:3] == [0, 0, 1]

    def test_alternation_part_vanishes_below_four(self):
        coeffs = components(5).alternation_part.integer_coefficients()
        assert coeffs[:4] == [0, 0, 0, 0]
        assert coeffs[4] == 1  # 2413 itself

    def test_skew_part_counts_skew_decomposable_members(self):
        # by direct enumeration at n = 3: 231, 312, 321 are skew decomposable
        assert components(4).skew_part.integer_coefficients()[3] == 3
