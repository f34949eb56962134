"""Real-argument cylindrical Bessel and Hankel functions for integer orders.

All wave fields in this package are built from J_m, Y_m, H^(1)_m and their
first derivatives at real positive arguments.  Evaluation is backed by
scipy.special (AMOS/cephes), which covers the required envelope
(|order| <= 256, argument in [1e-3, 1e3]) at close to machine precision;
the test suite pins this against independent power-series and Miller
recurrence oracles.

One routine, _fold, gives Z_n and Z_n' for Z in (J, Y, H^(1)) at a run
of consecutive orders lo..hi and a scalar or an array of arguments: the
value, the derivative (Z_{n-1} - Z_{n+1}) / 2 and the parity identity
Z_{-n} = (-1)^n Z_n for negative orders, from one scipy call over the
orders |n| - 1..|n| + 1 the run needs.  Each order gets the same bits
whichever run it is part of.  The transfer matrices take one order at a
time; the cylindrical waves and the MSR model matrices take -K..K.  Only
the Kupradze kernel tables (bie, wavefields) call scipy for orders 0 and
1 directly.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, RangeError

MAX_ORDER = 256


def _check(order: int, argument: float) -> None:
    if not argument > 0.0:
        raise DomainError(f"argument must be positive, got {argument}")
    if abs(order) > MAX_ORDER:
        raise RangeError(f"|order| must be <= {MAX_ORDER}, got {order}")


@functools.cache
def _order_column(start: int, stop: int, ndim: int) -> np.ndarray:
    """The orders start..stop-1 along a leading axis that broadcasts against ndim axes (read-only)."""
    column = np.arange(start, stop).reshape((-1,) + (1,) * ndim)
    column.flags.writeable = False
    return column


def _fold(z, lo: int, hi: int, t):
    """(Z_n(t), Z_n'(t)) for Z in (sp.jv, sp.yv, sp.hankel1) and n = lo..hi along a new leading axis.

    One ufunc call on the orders |n|-1..|n|+1 that the range needs serves
    every value: the derivative (Z_{m-1} - Z_{m+1}) / 2 is the formula
    sp.jvp, sp.yvp and sp.h1vp evaluate at m = |n| > 0.  At m = 0 it is
    -Z_1, since scipy gives Z_{-1} = -Z_1 exactly.  A negative order takes
    the parity sign (-1)^n by negation.  t may be a scalar or an array.
    """
    top = -lo if -lo > hi else hi  # largest |n|
    low = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))  # smallest |n|
    first = low - 1 if low else 0
    zs = z(_order_column(first, top + 2, np.ndim(t)), t)
    if top == 0:  # n = 0 alone: Z_0 and -Z_1, no differences to form
        return zs[:1], -zs[1:]
    val = zs[low - first : -1]  # |n| = low..top
    der = (zs[:-2] - zs[2:]) / 2.0  # m = first + 1..top
    if low == 0:
        der = np.concatenate([-zs[1:2], der])
    if lo >= 0:
        return val, der
    if hi < 0:  # |n| = low..top are the orders hi..lo
        val, der = val[::-1], der[::-1]
    else:  # low = 0: the rows |n| = -lo..1, then 0..hi
        val = np.concatenate([val[-lo:0:-1], val[: hi + 1]])
        der = np.concatenate([der[-lo:0:-1], der[: hi + 1]])
    odd = slice(lo % 2 == 0, min(hi, -1) - lo + 1, 2)  # rows of the odd negative orders
    for x in (val[odd], der[odd]):  # zs is not read again
        np.negative(x, x)
    return val, der
