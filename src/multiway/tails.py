"""Exact upper tails of the chi distribution (that of |Z| for one degree of
freedom, the root of a chi-square for m), and the Wald-region quantiles
solved from them with the standard library.

:func:`wald_quantiles` returns the normal and chi-square quantiles of a
Wald region correctly rounded to float. It solves for them in
:mod:`decimal` at :data:`QUANTILE_DIGITS` significant digits, on closed
forms of the tails: a finite sum for even degrees of freedom, and erfc
plus a finite sum for odd ones. :func:`multiway.variance.wald_region`
imports this module when it first builds a region.
"""

from __future__ import annotations

from decimal import Context, Decimal, getcontext, localcontext
from functools import cache

from .variance import check_alpha

__all__ = ["QUANTILE_DIGITS", "wald_quantiles"]

# Significant digits of the decimal Wald quantile solve. Newton stops once a
# step moves u by less than 10^-30 of itself; converging quadratically, it is
# then far closer to the root than a float's 10^-16, so rounding it to float
# gives the correctly rounded quantile unless the exact one lies within about
# 10^-30 (relative) of a float rounding midpoint.
QUANTILE_DIGITS = 50
_NEWTON_TOL = Decimal("1e-30")


@cache
def _pi(digits: int) -> Decimal:
    """pi to more than ``digits`` significant digits (Gauss-Legendre)."""
    with localcontext(Context(prec=digits + 5)):
        a, b, t, p = Decimal(1), Decimal("0.5").sqrt(), Decimal("0.25"), 1
        for _ in range(digits.bit_length()):
            a, b, t, p = (a + b) / 2, (a * b).sqrt(), t - p * ((a - b) / 2) ** 2, 2 * p
        return (a + b) ** 2 / (4 * t)


def _erfc_sqrt(y: Decimal) -> Decimal:
    """erfc(sqrt(y)) for y > 0, as 1 - erf from the positive series
    erf(s) = 2 s e^(-s^2) / sqrt(pi) * sum_n (2 s^2)^n / (1 * 3 * ... * (2n + 1)).
    The sum carries y / 2 guard digits, since erfc(sqrt(y)) is about e^-y and
    the subtraction cancels y log10(e) of them."""
    with localcontext() as ctx:
        ctx.prec += int(y) // 2 + 5
        term = total = Decimal(1)
        last, n = None, 0
        while total != last:
            n += 1
            last, term = total, term * 2 * y / (2 * n + 1)
            total += term
        return 1 - 2 * (y / _pi(ctx.prec)).sqrt() * (-y).exp() * total


def _chi_tail(m: int, u: Decimal) -> tuple[Decimal, Decimal]:
    """P(chi_m > u) and the chi_m density at u, for the chi distribution
    with ``m`` degrees of freedom (chi_m^2 is chi-square with m).

    With y = u^2 / 2 the tail is Q(m/2, y), the regularized upper incomplete
    gamma function, built up by Q(a + 1, y) = Q(a, y) + T(a + 1) with
    T(a) = y^(a-1) e^-y / Gamma(a), from Q(1, y) = e^-y for even m and from
    Q(1/2, y) = erfc(sqrt(y)) for odd m; the density is u T(m/2).
    """
    y = u * u / 2
    if m % 2:
        a, term = Decimal("0.5"), (-y).exp() / (_pi(getcontext().prec) * y).sqrt()
        tail = _erfc_sqrt(y)
    else:
        a, term = Decimal(1), (-y).exp()
        tail = term
    while 2 * a < m:
        term = term * y / a
        a += 1
        tail += term
    return tail, u * term


def _chi_quantile(m: int, alpha: float) -> Decimal:
    """The u with P(chi_m > u) = ``alpha``, by Newton's method on
    log P(chi_m > u) = log alpha at the current decimal precision.

    The chi density u^(m-1) e^(-u^2/2) is log-concave, so the log tail is
    concave in u, and a Newton step from the right of the root lands between
    the root and the last iterate. The start u0^2 = m + 2 sqrt(m t) + 2 t,
    t = -log alpha, lies right of the root, since P(chi_m^2 >= u0^2) <= e^-t
    (Laurent and Massart 2000, Lemma 1).
    """
    t = -Decimal(float(alpha)).ln()
    u = (m + 2 * (m * t).sqrt() + 2 * t).sqrt()
    while True:
        tail, density = _chi_tail(m, u)
        step = (tail.ln() + t) * tail / density
        u += step
        if -step <= _NEWTON_TOL * u:
            return u


@cache
def wald_quantiles(m: int, alpha: float) -> tuple[float, float]:
    """The upper-tail quantiles of a level-``alpha`` Wald region in ``m``
    parameters: z with P(Z > z) = alpha / 2 for a standard normal Z, and x
    with P(chi2_m > x) = alpha, each correctly rounded to float.

    Both come from one root of the chi tail, solved at ``QUANTILE_DIGITS``
    digits and rounded once: z = u_1, since P(|Z| > z) = alpha, and
    x = u_m^2. Cached per (m, alpha); an ``alpha`` outside (0, 1) is a
    ConfigError.
    """
    check_alpha(alpha)
    with localcontext(Context(prec=QUANTILE_DIGITS)):
        z = _chi_quantile(1, alpha)
        u = z if m == 1 else _chi_quantile(m, alpha)
        return float(z), float(u * u)
