"""Scalar ports of the Cephes routines behind the objectives' block terms.

scipy.special computes gammaln, xlogy and xlog1py with Moshier's Cephes
library (Methods and Programs for Mathematical Functions, 1989). These are
ports of lgam and log1p that keep Cephes' operation order and call the
same libm log and sin, so each returns the float the scipy ufunc returns
at a float argument; tests/test_cephes.py compares them bit for bit.
Importing scipy.special costs a command about 0.27 s and 20 MB, which no
sbmfit command pays.

The polynomials are written out in Horner form, literal coefficients
included: a scalar call is a few hundred nanoseconds, so a loop over a
coefficient tuple or a global lookup is a visible share of it.

The integrated likelihood's log-beta values need no port of their own:
its block term is a sum of lgam values (see sbmfit.modularity).
"""

import math
from math import log


def _clog(y):
    """C's log: -inf at 0 and NaN below it, where math.log raises."""
    if y > 0.0:
        return log(y)
    return -math.inf if y == 0.0 else math.nan


def lgam_stirling(x):
    """lgam at x >= 1000, where Cephes sums Stirling's series."""
    # q = (x - 1/2) log x - x + log sqrt(2 pi), plus the series' terms in
    # 1/x up to 10^8.
    if x > 1.0e8:
        if x > 2.556348e305:
            return math.inf
        return (x - 0.5) * log(x) - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    return ((x - 0.5) * log(x) - x + 0.91893853320467274178
            + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
               + 0.0833333333333333333333) / x)


def lgam(x):
    """log|Gamma(x)|, Cephes lgam: scipy.special.gammaln at a float."""
    if x >= 1000.0:
        return lgam_stirling(x)
    if x >= 13.0:
        p = 1.0 / (x * x)
        return ((x - 0.5) * log(x) - x + 0.91893853320467274178
                + ((((8.11614167470508450300E-4 * p - 5.95061904284301438324E-4) * p
                     + 7.93650340457716943945E-4) * p - 2.77777777730099687205E-3) * p
                   + 8.33333333333331927722E-2) / x)
    if not math.isfinite(x):
        return x
    if x < -34.0:
        # Reflection: log|Gamma(x)| = log pi - log|q sin(pi z)| - log Gamma(q).
        q = -x
        w = lgam(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return 1.14472988584940017414 - log(z) - w
    # Shift into [2, 3) by the recurrence, then a rational function there.
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        if u == 0.0:
            return math.inf
        z /= u
        p += 1.0
        u = x + p
    z = abs(z)
    if u == 2.0:
        return log(z)
    x += p - 2.0
    return log(z) + x * (((((-1.37825152569120859100E3 * x - 3.88016315134637840924E4) * x
                            - 3.31612992738871184744E5) * x - 1.16237097492762307383E6) * x
                          - 1.72173700820839662146E6) * x - 8.53555664245765465627E5) / (
        (((((x - 3.51815701436523470549E2) * x - 1.70642106651881159223E4) * x
           - 2.20528590553854454839E5) * x - 1.13933444367982507207E6) * x
         - 2.53252307177582951285E6) * x - 2.01889141433532773231E6)


def log1p(x):
    """log(1 + x), Cephes log1p, which scipy.special.xlog1py calls."""
    z = 1.0 + x
    if z < 0.70710678118654752440 or z > 1.41421356237309504880:
        return _clog(z)
    # x - x^2/2 + x^3 P(x)/Q(x) for 1/sqrt(2) <= 1 + x <= sqrt(2).
    z = x * x
    return x + (-0.5 * z + x * (z * ((((((4.5270000862445199635215E-5 * x
                                          + 4.9854102823193375972212E-1) * x
                                         + 6.5787325942061044846969E0) * x
                                        + 2.9911919328553073277375E1) * x
                                       + 6.0949667980987787057556E1) * x
                                      + 5.7112963590585538103336E1) * x
                                     + 2.0039553499201281259648E1) / (
        (((((x + 1.5062909083469192043167E1) * x + 8.3047565967967209469434E1) * x
           + 2.2176239823732856465394E2) * x + 3.0909872225312059774938E2) * x
         + 2.1642788614495947685003E2) * x + 6.0118660497603843919306E1)))


def xlogy(x, y):
    """x * log(y), 0 where x is 0 unless y is NaN: scipy.special.xlogy."""
    if x == 0.0 and y == y:
        return 0.0
    return x * _clog(y)


def xlog1py(x, y):
    """x * log1p(y), 0 where x is 0 unless y is NaN: scipy.special.xlog1py."""
    if x == 0.0 and y == y:
        return 0.0
    return x * log1p(y)
