"""Smooth closed boundary curves for the integral-equation solver.

Curves are 2*pi-periodic analytic parametrizations t -> x(t) with
counterclockwise orientation, so the outward normal is
n = (x2', -x1') / |x'|.  Every curve type is a finite Fourier series in
z = x1 + i x2,

    z(t) = sum_{j=-J..J} c_j e^{ijt},

and one evaluator gives position, velocity (dx/dt) and acceleration
(d^2x/dt^2) as the series sum_j (ij)^p c_j e^{ijt}, p = 0, 1, 2; the
acceleration enters the diagonal limits of the singular quadrature.
The coefficients of each type:

    Circle(r)          c_1 = r
    Ellipse(a, b)      c_1 = (a + b)/2, c_-1 = (a - b)/2
    Kite(s)            (c_-2, ..., c_2) = s (0.325, -0.25, -0.65, 1.25, 0.325)
    FourierRadius      c_{k+1} = r0 rho_k, where r(t)/r0 = sum_k rho_k e^{ikt}:
                       rho_0 = 1, rho_{+-k} = (eps_k -+ i del_k)/2

Construction validates that the curve encloses the origin, has no cusps
(|velocity| bounded away from zero) and is simple, all by sampling.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["BoundaryCurve", "Circle", "Ellipse", "Kite", "FourierRadius", "curve_from_dict"]


class BoundaryCurve:
    """Base class: the series z(t) = sum_j c_j e^{ijt}; subclasses set c_-J..c_J."""

    _coeffs: np.ndarray  # complex c_j at index j + J

    def _series(self, t, p: int) -> np.ndarray:
        """sum_j (ij)^p c_j e^{ijt} as (x1, x2) on the last axis."""
        t = np.asarray(t, dtype=float)
        j = np.arange(len(self._coeffs)) - len(self._coeffs) // 2
        jt = t[..., None] * j
        z = ((np.cos(jt) + 1j * np.sin(jt)) * (self._coeffs * (1j * j) ** p)).sum(axis=-1)
        return np.stack([z.real, z.imag], axis=-1)

    def position(self, t: np.ndarray) -> np.ndarray:
        return self._series(t, 0)

    def velocity(self, t: np.ndarray) -> np.ndarray:
        return self._series(t, 1)

    def accel(self, t: np.ndarray) -> np.ndarray:
        return self._series(t, 2)

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _set_coeffs(self, coeffs) -> None:
        """Take c_-J..c_J and validate the curve they describe."""
        self._coeffs = np.asarray(coeffs, dtype=complex)
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        x = self.position(t)
        v = self.velocity(t)
        speed = np.hypot(v[:, 0], v[:, 1])
        if speed.min() < 1e-8:
            raise DomainError("curve has a cusp: |velocity| vanishes")
        if not abs(abs(self._winding_angle(x)) - 2.0 * np.pi) < 1e-6:
            raise DomainError("curve must enclose the origin")
        if self._self_intersects(x):
            raise DomainError("curve must be simple (no self-intersection)")

    @staticmethod
    def _winding_angle(x: np.ndarray) -> float:
        """Angle the closed polygon x turns through about the origin: 2 pi times its winding number."""
        ang = np.arctan2(x[:, 1], x[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        return ((dang + np.pi) % (2.0 * np.pi) - np.pi).sum()

    @staticmethod
    def _self_intersects(x: np.ndarray) -> bool:
        # segments a_i + t r_i and a_j + u s_j, i < j, all pairs at once but
        # the adjacent ones (which share endpoints); parallel pairs are skipped.
        # They cross where t = (q x s) / (r x s) and u = (q x r) / (r x s),
        # q = a_j - a_i, both lie strictly inside (0, 1)
        n = len(x)
        d = np.roll(x, -1, axis=0) - x
        (r0, r1), (s0, s1) = d.T[:, :, None], d.T[:, None, :]
        q0 = x[None, :, 0] - x[:, None, 0]
        q1 = x[None, :, 1] - x[:, None, 1]
        denom = r0 * s1 - r1 * s0
        pair = np.triu(np.ones((n, n), dtype=bool), 2)
        pair[0, n - 1] = False
        mask = pair & (np.abs(denom) > 1e-14)
        tt = (q0 * s1 - q1 * s0)[mask] / denom[mask]
        uu = (q0 * r1 - q1 * r0)[mask] / denom[mask]
        return bool(np.any((tt > 1e-9) & (tt < 1 - 1e-9) & (uu > 1e-9) & (uu < 1 - 1e-9)))

    # -- geometry helpers --------------------------------------------------

    def contains(self, point) -> bool:
        """Winding-number test on a sampled polygon."""
        p = np.asarray(point, dtype=float)
        x = self.position(np.linspace(0, 2 * np.pi, 512, endpoint=False)) - p
        return bool(abs(self._winding_angle(x)) > np.pi)


class Circle(BoundaryCurve):
    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise DomainError("radius must be positive")
        self.radius = float(radius)
        self._set_coeffs([0.0, 0.0, self.radius])

    def to_dict(self):
        return {"type": "circle", "radius": self.radius}


class Ellipse(BoundaryCurve):
    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise DomainError("semi-axes must be positive")
        self.a, self.b = float(a), float(b)
        self._set_coeffs([(self.a - self.b) / 2, 0.0, (self.a + self.b) / 2])

    def to_dict(self):
        return {"type": "ellipse", "a": self.a, "b": self.b}


class Kite(BoundaryCurve):
    """Standard kite: (cos t + 0.65 cos 2t - 0.65, 1.5 sin t), scalable."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise DomainError("scale must be positive")
        self.scale = float(scale)
        self._set_coeffs(self.scale * np.array([0.325, -0.25, -0.65, 1.25, 0.325]))

    def to_dict(self):
        return {"type": "kite", "scale": self.scale}


class FourierRadius(BoundaryCurve):
    """Star-shaped curve r(t) = r0 (1 + sum_k eps_k cos kt + del_k sin kt)."""

    def __init__(self, r0: float = 1.0, cos_coeffs=(), sin_coeffs=()):
        self.r0 = float(r0)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        # rho_0..rho_k of r(t)/r0; rho_-k = conj(rho_k)
        rho = np.zeros(1 + max(len(self.cos_coeffs), len(self.sin_coeffs)), dtype=complex)
        rho[0] = 1.0
        rho[1 : len(self.cos_coeffs) + 1] += self.cos_coeffs / 2
        rho[1 : len(self.sin_coeffs) + 1] -= 0.5j * self.sin_coeffs
        # z = r(t) e^{it}: c_j = r0 rho_{j-1}, so c_-J = c_-J+1 = 0 for J = k + 1
        self._set_coeffs(self.r0 * np.concatenate([[0.0, 0.0], rho[:0:-1].conj(), rho]))

    def to_dict(self):
        return {
            "type": "fourier",
            "r0": self.r0,
            "cos_coeffs": list(self.cos_coeffs),
            "sin_coeffs": list(self.sin_coeffs),
        }


def curve_from_dict(d: dict) -> BoundaryCurve:
    """Build a curve from its JSON descriptor (type tag + parameters)."""
    kind = d.get("type")
    if kind == "circle":
        return Circle(d.get("radius", 1.0))
    if kind == "ellipse":
        for key in ("a", "b"):
            if key not in d:
                raise ConfigError(f"curve type 'ellipse' is missing parameter {key!r}")
        return Ellipse(d["a"], d["b"])
    if kind == "kite":
        return Kite(d.get("scale", 1.0))
    if kind == "fourier":
        return FourierRadius(
            d.get("r0", 1.0), d.get("cos_coeffs", ()), d.get("sin_coeffs", ())
        )
    raise DomainError(f"unknown curve type {kind!r}")
