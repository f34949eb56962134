"""Smooth closed boundary curves for the integral-equation solver.

Curves are 2*pi-periodic analytic parametrizations t -> x(t) with
counterclockwise orientation, so the outward normal is
n = (x2', -x1') / |x'|.  Each curve exposes position, velocity (dx/dt)
and acceleration (d^2x/dt^2); the acceleration enters the diagonal
limits of the singular quadrature.

Construction validates that the curve encloses the origin, has no cusps
(|velocity| bounded away from zero) and is simple, all by sampling.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["BoundaryCurve", "Circle", "Ellipse", "Kite", "FourierRadius", "curve_from_dict"]


class BoundaryCurve:
    """Base class; subclasses implement position/velocity/accel."""

    def position(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accel(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

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
        self.validate()

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return self.radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def accel(self, t):
        return -self.position(t)

    def to_dict(self):
        return {"type": "circle", "radius": self.radius}


class Ellipse(BoundaryCurve):
    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise DomainError("semi-axes must be positive")
        self.a, self.b = float(a), float(b)
        self.validate()

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def accel(self, t):
        return -self.position(t)

    def to_dict(self):
        return {"type": "ellipse", "a": self.a, "b": self.b}


class Kite(BoundaryCurve):
    """Standard kite: (cos t + 0.65 cos 2t - 0.65, 1.5 sin t), scalable."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise DomainError("scale must be positive")
        self.scale = float(scale)
        self.validate()

    def position(self, t):
        t = np.asarray(t, dtype=float)
        x = np.cos(t) + 0.65 * np.cos(2 * t) - 0.65
        y = 1.5 * np.sin(t)
        return self.scale * np.stack([x, y], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        x = -np.sin(t) - 1.3 * np.sin(2 * t)
        y = 1.5 * np.cos(t)
        return self.scale * np.stack([x, y], axis=-1)

    def accel(self, t):
        t = np.asarray(t, dtype=float)
        x = -np.cos(t) - 2.6 * np.cos(2 * t)
        y = -1.5 * np.sin(t)
        return self.scale * np.stack([x, y], axis=-1)

    def to_dict(self):
        return {"type": "kite", "scale": self.scale}


class FourierRadius(BoundaryCurve):
    """Star-shaped curve r(t) = r0 (1 + sum_k eps_k cos kt + del_k sin kt)."""

    def __init__(self, r0: float = 1.0, cos_coeffs=(), sin_coeffs=()):
        self.r0 = float(r0)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        self.validate()

    def _radius(self, t):
        r = np.ones_like(t)
        for k, e in enumerate(self.cos_coeffs, start=1):
            r = r + e * np.cos(k * t)
        for k, d in enumerate(self.sin_coeffs, start=1):
            r = r + d * np.sin(k * t)
        return self.r0 * r

    def _radius_d1(self, t):
        r = np.zeros_like(t)
        for k, e in enumerate(self.cos_coeffs, start=1):
            r = r - k * e * np.sin(k * t)
        for k, d in enumerate(self.sin_coeffs, start=1):
            r = r + k * d * np.cos(k * t)
        return self.r0 * r

    def _radius_d2(self, t):
        r = np.zeros_like(t)
        for k, e in enumerate(self.cos_coeffs, start=1):
            r = r - k * k * e * np.cos(k * t)
        for k, d in enumerate(self.sin_coeffs, start=1):
            r = r - k * k * d * np.sin(k * t)
        return self.r0 * r

    def position(self, t):
        t = np.asarray(t, dtype=float)
        r = self._radius(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        r, r1 = self._radius(t), self._radius_d1(t)
        return np.stack(
            [r1 * np.cos(t) - r * np.sin(t), r1 * np.sin(t) + r * np.cos(t)], axis=-1
        )

    def accel(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, r2 = self._radius(t), self._radius_d1(t), self._radius_d2(t)
        return np.stack(
            [
                (r2 - r) * np.cos(t) - 2 * r1 * np.sin(t),
                (r2 - r) * np.sin(t) + 2 * r1 * np.cos(t),
            ],
            axis=-1,
        )

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
