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
negative orders.  _fold_orders is its table form: every order -K..K from
one call over the orders 0..K+1, with the same values bit for bit.  The
cylindrical waves, the transfer matrices and the MSR model matrices all
take their values from these two; only the Kupradze kernel tables (bie,
wavefields) call scipy for orders 0 and 1 directly.
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


def _fold_orders(z, K: int, t):
    """(Z_n(t), Z_n'(t)) for n = -K..K along a new leading axis, each as _fold gives it.

    One ufunc call on the orders 0..K+1 serves every value: the
    derivative is (Z_{n-1} - Z_{n+1}) / 2 for n > 0 and -Z_1 at n = 0, and
    a negative order takes the parity sign (-1)^n, exactly as in _fold.
    """
    axes = (1,) * np.ndim(t)
    zs = z(np.arange(K + 2).reshape((-1,) + axes), t)
    der = np.empty_like(zs[: K + 1])
    der[0] = -zs[1]
    der[1:] = (zs[:K] - zs[2:]) / 2.0
    parity = ((-1.0) ** np.arange(K, 0, -1)).reshape((-1,) + axes)  # n = -K..-1
    return (
        np.concatenate([parity * zs[K:0:-1], zs[: K + 1]]),
        np.concatenate([parity * der[K:0:-1], der]),
    )
