"""Truncated formal power series over exact rationals.

Coefficients are `fractions.Fraction` values (arbitrary precision, always
reduced with positive denominator), indexed 0..order.  Binary operations
truncate to the smaller order.  Division strips common leading zeros and
refuses anything that would need negative powers.

Multiplication, division and square roots run on plain integers and build
one `Fraction` per output coefficient.  Each operand is written as integer
numerators over one common denominator (the lcm of its denominators):

* a product is an integer convolution over the product of the two
  denominators;
* a quotient A/B substitutes x -> x/B0, which makes the divisor monic
  (B~_j = B_j B0^(j-1), A~_k = A_k B0^k, for integer A and B); the
  quotient numerators P_k then follow the integer recurrence
  P_k = A~_k - sum_{t<k} P_t B~_(k-t), and q_k = P_k db / (B0^(k+1) da);
* the square root of 1 + A/d substitutes x -> x/(4d), which leaves
  1 + 4V with V an integer series; sqrt(1 + 4y) has integer coefficients,
  so its root U does too, u_k = (A~_k - sum_{0<t<k} u_t u_(k-t)) / 2
  divides exactly, and s_k = u_k / (4d)^k.

On top of the arithmetic sit two independent expansions of the counting
series of the permutations sortable by a pop stack feeding a stack: the
closed form

    (1 - 3x + 2x^2 - sqrt(1 - 6x + 5x^2)) / (2x(2 - x))

and the fixed point of

    f = x + f^2/(1+f) + xf/(1-x) + (xf)^2 / ((1-x)(1-x-xf)),

whose agreement (and agreement with brute-force counts) is checked by the
test suite.  The fixed point is found by Newton steps on F(f) = rhs(f) - f:
g - F(g)/F'(g).  F' has constant term -1, so the division is defined, and
every divisor in F and F' has constant term 1, so integral coefficients
stay integral.  If g agrees with the fixed point f* to order k, then
g - f* = O(x^(k+1)), so F(g) - F'(g)(g - f*) is F(f*) = 0 up to
O(x^(2k+2)): the step is correct to order 2k+1.  Starting from f = 0,
correct to order 0, round r therefore works to order 2^r - 1 and no
further (cut to `terms`), so round terms.bit_length() is the first at the
full order and yields the fixed point.  The only exit is exact: a round at
the full order whose residual F(g) is the zero series returns g, so a wrong
slope could slow convergence but never return a wrong series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators and their one common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a power series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs
        ))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __str__(self) -> str:
        terms = [f"{c}*x^{n}" for n, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"

    @staticmethod
    def from_coeffs(values: Sequence[Scalar], order: int) -> "PowerSeries":
        """Series to `order` with the given low-order coefficients, cut or
        zero-padded."""
        values = tuple(values[: order + 1])
        return PowerSeries(values + (Fraction(0),) * (order + 1 - len(values)))

    @staticmethod
    def constant(value: Scalar, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([value], order)

    @staticmethod
    def x(order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([0, 1], order)

    def _coerce(self, other) -> "PowerSeries | None":
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return PowerSeries.constant(other, self.order)
        return None

    def __add__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return PowerSeries(tuple(self.coeffs[k] + o.coeffs[k] for k in range(n + 1)))

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return PowerSeries(tuple(self.coeffs[k] - o.coeffs[k] for k in range(n + 1)))

    def __rsub__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        a, da = _over_common_denominator(self.coeffs[: n + 1])
        b, db = _over_common_denominator(o.coeffs[: n + 1])
        d = da * db
        rb = b[::-1]  # rb[n - k:] is b[k], ..., b[0]
        return PowerSeries(tuple(
            Fraction(sum(map(mul, a[: k + 1], rb[n - k:])), d) for k in range(n + 1)
        ))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        kb = next((k for k, c in enumerate(b) if c), None)
        if kb is None:
            raise ZeroDivisionError("division by the zero series")
        if kb:
            ka = next((k for k, c in enumerate(a) if c), len(a))
            if ka < kb:
                raise ValueError(
                    f"division needs {kb} leading zero(s) in the dividend, found {ka}"
                )
            a = a[kb:]
            b = b[kb:]
        n = min(len(a), len(b)) - 1
        num, da = _over_common_denominator(a[: n + 1])
        den, db = _over_common_denominator(b[: n + 1])
        b0 = den[0]
        # x -> x/b0 makes the divisor monic: rb[n - k:] is B~_k, ..., B~_1
        rb = [den[j] * b0 ** (j - 1) for j in range(n, 0, -1)]
        p: list[int] = []
        for k in range(n + 1):
            p.append(num[k] * b0 ** k - sum(map(mul, p, rb[n - k:])))
        return PowerSeries(tuple(
            Fraction(pk * db, b0 ** (k + 1) * da) for k, pk in enumerate(p)
        ))

    def __rtruediv__(self, other) -> "PowerSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sqrt(self) -> "PowerSeries":
        """The square root with constant term 1 (required of the input too)."""
        a = self.coeffs
        if a[0] != 1:
            raise ValueError(f"sqrt needs constant term 1, got {a[0]}")
        num, d = _over_common_denominator(a)
        # x -> x/(4d) leaves 1 + 4*(an integer series), whose root has
        # integer coefficients u_k; then s_k = u_k / (4d)^k.  The sum
        # over 0 < t < k of u_t u_(k-t) is a palindrome: each pair t < k/2
        # counts twice, plus the middle square when k is even
        step = 4 * d
        u = [1]
        for k in range(1, len(a)):
            h = (k - 1) // 2
            acc = num[k] * step ** k // d - 2 * sum(map(mul, u[1:h + 1], u[k - 1:k - h - 1:-1]))
            if k % 2 == 0:
                acc -= u[k // 2] ** 2
            u.append(acc // 2)
        return PowerSeries(tuple(Fraction(uk, step ** k) for k, uk in enumerate(u)))

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs(self.coeffs, order)

    def integer_coefficients(self) -> list[int]:
        """Coefficients as ints; raises if any is not integral."""
        out = []
        for n, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ValueError(f"coefficient of x^{n} is not an integer: {c}")
            out.append(c.numerator)
        return out


def closed_form(terms: int) -> PowerSeries:
    """The sortable-count series from its closed form, to order `terms`.

    The numerator vanishes at x=0, cancelling the factor x in the
    denominator; the result is checked to have nonnegative integer
    coefficients and zero constant term (the series counts nonempty
    permutations).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    order = terms + 1  # one extra order survives the shift in the division
    radicand = PowerSeries.from_coeffs([1, -6, 5], order)
    numerator = PowerSeries.from_coeffs([1, -3, 2], order) - radicand.sqrt()
    denominator = PowerSeries.from_coeffs([0, 4, -2], order)  # 2x(2-x)
    f = numerator / denominator
    coeffs = f.integer_coefficients()
    if f[0] != 0 or any(c < 0 for c in coeffs):
        raise AssertionError(f"closed form produced invalid coefficients {coeffs}")
    return f


class SeriesComponents(NamedTuple):
    sum_part: PowerSeries          # sum decomposable members: f^2/(1+f)
    skew_part: PowerSeries         # skew decomposable members: xf/(1-x)
    alternation_part: PowerSeries  # inflations of parallel alternations


def _terms(f: PowerSeries, x: PowerSeries) -> SeriesComponents:
    """The three terms that the defining equation adds to x."""
    xf = x * f
    return SeriesComponents(
        sum_part=(f * f) / (1 + f),
        skew_part=xf / (1 - x),
        alternation_part=(xf * xf) / ((1 - x) * (1 - x - xf)),
    )


def _rhs(f: PowerSeries, x: PowerSeries) -> PowerSeries:
    return sum(_terms(f, x), x)  # x + sum_part + skew_part + alternation_part


def _slope(f: PowerSeries, x: PowerSeries) -> PowerSeries:
    """d(rhs - f)/df at f; its constant term is -1.

    The skew and alternation terms add up to xf/(1-x-xf), whose derivative
    is x(1-x)/(1-x-xf)^2; the sum term's is 1 - 1/(1+f)^2.
    """
    rest = 1 - x - x * f
    return x * (1 - x) / (rest * rest) - 1 / ((1 + f) * (1 + f))


def fixed_point(terms: int) -> PowerSeries:
    """The same series as the unique fixed point of its defining equation.

    Newton steps on rhs(f) - f from f = 0 at order 0 (see the module
    docstring): each round works at order min(2*order + 1, terms), order
    that of the previous iterate, and only a round at order `terms` whose
    residual is the zero series returns.  That takes terms.bit_length() + 1
    rounds; past terms.bit_length() + 3 the iteration has failed to converge
    and raises AssertionError.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    f = PowerSeries.constant(0, 0)
    rounds = terms.bit_length() + 3
    for _ in range(rounds):
        order = min(2 * f.order + 1, terms)
        g = f.truncate(order)
        x = PowerSeries.x(order)
        residual = _rhs(g, x) - g
        if order == terms and not any(residual.coeffs):
            return g
        f = g - residual / _slope(g, x)
    raise AssertionError(f"Newton iteration did not settle within {rounds} rounds")


def components(terms: int) -> SeriesComponents:
    """The three structural component series built from the closed form."""
    return _terms(closed_form(terms), PowerSeries.x(terms))
