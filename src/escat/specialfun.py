"""Real-argument cylindrical Bessel and Hankel functions for integer orders.

All wave fields in this package are built from J_m, Y_m, H^(1)_m and their
first derivatives at real positive arguments.  Evaluation is backed by
scipy.special (AMOS/cephes), which covers the required envelope
(|order| <= 256, argument in [1e-3, 1e3]) at close to machine precision;
the test suite pins this against independent power-series and Miller
recurrence oracles.

Negative orders are folded with the parity identity
J_{-n} = (-1)^n J_n (same for Y, H and the derivatives).  Batch helpers
return all orders 0..n_max for a common argument, which is the access
pattern of every consumer (Nystrom assembly, transfer matrices, model
matrices all evaluate full order sweeps at repeated arguments).
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


def hankel1(order: int, argument: float) -> tuple[complex, complex]:
    """H^(1)_n and its derivative, from one J/Y evaluation.

    Returns
    -------
    (value, derivative) : tuple of complex
        H^(1)_n(t) = J_n(t) + i Y_n(t) and d/dt H^(1)_n(t).
    """
    ev = bessel_jy(order, argument)
    return ev.j + 1j * ev.y, ev.jp + 1j * ev.yp


def bessel_sequence(n_max: int, argument: float) -> tuple[np.ndarray, ...]:
    """All of J_n, Y_n, J_n', Y_n' for n = 0..n_max at one argument.

    One call serves every order a consumer needs; recurrence-based
    derivatives reuse the J/Y tables (J_n' = J_{n-1} - (n/t) J_n).
    """
    _check(n_max, argument)
    t = float(argument)
    n = np.arange(n_max + 1)
    j = sp.jv(n, t)
    y = sp.yv(n, t)
    jm1 = np.empty(n_max + 1)
    ym1 = np.empty(n_max + 1)
    jm1[0] = -j[1] if n_max >= 1 else -sp.jv(1, t)
    ym1[0] = -y[1] if n_max >= 1 else -sp.yv(1, t)
    jm1[1:] = j[:-1]
    ym1[1:] = y[:-1]
    jp = jm1 - (n / t) * j
    yp = ym1 - (n / t) * y
    return j, y, jp, yp


def hankel1_sequence(n_max: int, argument: float) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_n and derivatives for n = 0..n_max at one argument."""
    j, y, jp, yp = bessel_sequence(n_max, argument)
    return j + 1j * y, jp + 1j * yp


def hankel1_orders(n_max: int, argument: float) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_n and derivatives for n = -n_max..n_max at one argument.

    The hankel1_sequence tables are extended to negative orders by the
    parity identity H_{-n} = (-1)^n H_n.
    """
    sign = (-1.0) ** np.arange(n_max, 0, -1)
    return tuple(
        np.concatenate([sign * v[n_max:0:-1], v]) for v in hankel1_sequence(n_max, argument)
    )
