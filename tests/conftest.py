"""Shared fixtures and finite-difference oracles for the test suite."""

import numpy as np
import pytest

from escat.wavefields import Material, MaterialPair, _wave_table

# nondimensional desk-scale materials: c_S = 1, c_P = 2 outside;
# interior = 2x contrast as in the cross-validation benchmark
EXTERIOR = Material(2.0, 1.0, 1.0)
INTERIOR = Material(4.0, 2.0, 2.0)


@pytest.fixture(scope="session")
def exterior():
    return EXTERIOR


@pytest.fixture(scope="session")
def interior():
    return INTERIOR


@pytest.fixture(scope="session")
def pair():
    return MaterialPair(EXTERIOR, INTERIOR)


def wave(z, mode, order, points, material, omega, normals=None):
    """Row (mode, order) of wavefields._wave_table at K = |order|: (field, traction).

    z is sp.jv for J^mode_order or sp.hankel1 for H^mode_order.  The
    tractions are on normals; without normals they are on the points
    themselves, and only the field means anything.  Each is (2,) for one
    point (2,), else (N, 2).
    """
    pts = np.asarray(points, dtype=float)
    k = abs(order)
    fields, tractions = _wave_table(
        z, pts, pts if normals is None else normals, material, omega, k
    )
    row = "PS".index(mode) * (2 * k + 1) + order + k
    if pts.ndim == 1:
        return fields[row, 0], tractions[row, 0]
    return fields[row], tractions[row]


def fd_gradient(field, x, h=1e-6):
    """Central-difference gradient: grad[i, j] = d u_i / d x_j."""
    e = np.eye(2)
    cols = [(field(x + h * e[j]) - field(x - h * e[j])) / (2 * h) for j in range(2)]
    return np.stack(cols, axis=-1)


def fd_traction(field, x, normal, material, h=1e-6):
    """Traction lam (div u) n + mu (grad u + grad u^T) n by central differences."""
    grad = fd_gradient(field, x, h)
    div = grad[0, 0] + grad[1, 1]
    sym = grad + grad.T
    return material.lam * div * np.asarray(normal) + material.mu * sym @ np.asarray(normal)


def fd_lame_residual(field, x, material, omega, h=1e-5):
    """Relative residual of mu Lap u + (lam+mu) grad div u + rho w^2 u."""
    e = np.eye(2)
    lap = (
        field(x + h * e[0])
        + field(x - h * e[0])
        + field(x + h * e[1])
        + field(x - h * e[1])
        - 4.0 * field(x)
    ) / h**2

    def div(p):
        g = fd_gradient(field, p, h)
        return g[0, 0] + g[1, 1]

    gd = np.array(
        [
            (div(x + h * e[0]) - div(x - h * e[0])) / (2 * h),
            (div(x + h * e[1]) - div(x - h * e[1])) / (2 * h),
        ]
    )
    res = (
        material.mu * lap
        + (material.lam + material.mu) * gd
        + material.rho * omega**2 * field(x)
    )
    return np.abs(res).max() / max(np.abs(field(x)).max(), 1e-30)
