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
negative orders.  The cylindrical waves, the transfer matrices, the MSR
model matrices and bessel_jy all take their values from it; only the
Kupradze kernel tables (bie, wavefields) call scipy for orders 0 and 1
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, RangeError

MAX_ORDER = 256


@dataclass(frozen=True)
class BesselEval:
    """J, Y and their argument-derivatives at one (order, argument)."""

    order: int
    argument: float
    j: float
    y: float
    jp: float
    yp: float


def _check(order: int, argument: float) -> None:
    if not argument > 0.0:
        raise DomainError(f"argument must be positive, got {argument}")
    if abs(order) > MAX_ORDER:
        raise RangeError(f"|order| must be <= {MAX_ORDER}, got {order}")


def _fold(z, order: int, t):
    """(Z_n(t), Z_n'(t)) for Z in (sp.jv, sp.yv, sp.hankel1), any integer n.

    One ufunc call on orders |n|-1, |n|, |n|+1 serves both values: the
    derivative (Z_{|n|-1} - Z_{|n|+1}) / 2 is the formula sp.jvp, sp.yvp
    and sp.h1vp evaluate.  The parity sign of odd negative orders is
    applied afterwards.  t may be a scalar or an array.
    """
    n = abs(order)
    orders = np.array([n - 1, n, n + 1]).reshape((3,) + (1,) * np.ndim(t))
    zs = z(orders, t)
    val, der = zs[1], (zs[0] - zs[2]) / 2.0
    if order < 0 and n % 2 == 1:
        return -val, -der
    return val, der


def bessel_jy(order: int, argument: float) -> BesselEval:
    """Evaluate J_n, Y_n, J_n', Y_n' at a real positive argument.

    Parameters
    ----------
    order : int
        Integer order n, |n| <= 256.  Negative orders use the parity
        identity (-1)^n times the positive-order values.
    argument : float
        Strictly positive real argument.

    Returns
    -------
    BesselEval
        All four values; finite for arguments in the supported envelope.
    """
    _check(order, argument)
    j, jp = _fold(sp.jv, order, argument)
    y, yp = _fold(sp.yv, order, argument)
    return BesselEval(order, argument, j, y, jp, yp)
