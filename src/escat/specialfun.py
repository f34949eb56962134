"""Real-argument cylindrical Bessel and Hankel functions for integer orders.

All wave fields in this package are built from J_m, Y_m, H^(1)_m and their
first derivatives at real positive arguments.  Evaluation is backed by
scipy.special (AMOS/cephes), which covers the required envelope
(|order| <= 256, argument in [1e-3, 1e3]) at close to machine precision;
the test suite pins this against independent power-series and Miller
recurrence oracles.

One routine, _fold, gives Z_n and Z_n' for Z in (J, Y, H^(1)) at one
order and a scalar or an array of arguments: the value, the derivative
(Z_{n-1} - Z_{n+1}) / 2 and the parity identity Z_{-n} = (-1)^n Z_n for
negative orders.  The cylindrical waves, the transfer matrices and the
MSR model matrices all take their values from it; only the
Kupradze kernel tables (bie, wavefields) call scipy for orders 0 and 1
directly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RangeError

MAX_ORDER = 256


def _check(order: int, argument: float) -> None:
    if not argument > 0.0:
        raise DomainError(f"argument must be positive, got {argument}")
    if abs(order) > MAX_ORDER:
        raise RangeError(f"|order| must be <= {MAX_ORDER}, got {order}")


def _fold(z, order: int, t):
    """(Z_n(t), Z_n'(t)) for Z in (sp.jv, sp.yv, sp.hankel1), any integer n.

    One ufunc call on orders |n|-1, |n|, |n|+1 serves both values: the
    derivative (Z_{|n|-1} - Z_{|n|+1}) / 2 is the formula sp.jvp, sp.yvp
    and sp.h1vp evaluate.  At n = 0 the call takes orders 0 and 1 only:
    scipy gives Z_{-1} = -Z_1 exactly, so the formula is -Z_1.  The parity
    sign of odd negative orders is applied afterwards.  t may be a scalar
    or an array.
    """
    n = abs(order)
    if n == 0:
        zs = z(np.array([0, 1]).reshape((2,) + (1,) * np.ndim(t)), t)
        return zs[0], -zs[1]
    orders = np.array([n - 1, n, n + 1]).reshape((3,) + (1,) * np.ndim(t))
    zs = z(orders, t)
    val, der = zs[1], (zs[0] - zs[2]) / 2.0
    if order < 0 and n % 2 == 1:
        return -val, -der
    return val, der

