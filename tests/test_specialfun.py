"""Special-function kernel: independent series/recurrence oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sp

from escat.errors import DomainError, RangeError
from escat.specialfun import _check, _fold


def jy(n, t):
    """(J_n, J_n', Y_n, Y_n') at t from the shared fold."""
    return (*_fold(sp.jv, n, t), *_fold(sp.yv, n, t))


def j_series(n, t, terms=40):
    """Power-series oracle: J_n(t) = sum_k (-1)^k (t/2)^{n+2k} / (k! (n+k)!)."""
    acc = 0.0
    for k in range(terms):
        acc += (-1.0) ** k * (t / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k)
        )
    return acc


def miller_j(n_max, t):
    """Downward (Miller) recurrence oracle for J_0..J_{n_max}."""
    start = n_max + 20 + int(t)
    jp1, j = 0.0, 1e-30
    vals = np.zeros(start + 1)
    vals[start] = j
    for k in range(start, 0, -1):
        jm1 = (2.0 * k / t) * j - jp1
        jp1, j = j, jm1
        vals[k - 1] = j
        if abs(j) > 1e250:
            vals *= 1e-250
            j *= 1e-250
            jp1 *= 1e-250
    # normalize with J_0 + 2 J_2 + 2 J_4 + ... = 1
    norm = vals[0] + 2.0 * np.sum(vals[2::2])
    return vals[: n_max + 1] / norm


class TestBesselJy:
    def test_j0_at_small_argument_is_one(self):
        # J_0(0) = 1 series limit
        assert abs(_fold(sp.jv, 0, 1e-12)[0] - 1.0) < 1e-12

    def test_parity_identity(self):
        assert jy(-3, 2.0) == tuple(-v for v in jy(3, 2.0))
        assert jy(-4, 2.0) == jy(4, 2.0)
        # the shared fold on H as well as J and Y, scalar and array arguments
        t = np.array([1e-3, 0.7, 2.0, 37.0, 1e3])
        for z, zp in ((sp.jv, sp.jvp), (sp.yv, sp.yvp), (sp.hankel1, sp.h1vp)):
            for n in range(-5, 6):
                sign = -1.0 if n < 0 and n % 2 else 1.0
                val, der = _fold(z, n, t)
                assert np.array_equal(val, sign * z(abs(n), t))
                assert np.array_equal(der, sign * zp(abs(n), t))
                v0, d0 = _fold(z, n, 2.0)
                assert np.ndim(v0) == 0 and v0 == val[2] and d0 == der[2]

    def test_j1_against_series_oracle(self):
        # frozen from the >=30-term Taylor oracle below
        oracle = j_series(1, 1.0)
        assert abs(oracle - 0.44005058574493355) < 1e-16
        assert abs(_fold(sp.jv, 1, 1.0)[0] - oracle) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 5, 17, 40])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 37.0, 1e3])
    def test_wronskian(self, n, t):
        j, jp, y, yp = jy(n, t)
        resid = j * yp - jp * y - 2.0 / (np.pi * t)
        assert abs(resid) * (np.pi * t / 2.0) < 1e-11

    @pytest.mark.parametrize("t", [0.5, 2.0, 11.0])
    def test_three_term_recurrence(self, t):
        for n in range(1, 30):
            lo, mid, hi = (_fold(sp.jv, k, t)[0] for k in (n - 1, n, n + 1))
            resid = lo + hi - (2.0 * n / t) * mid
            scale = max(abs(lo), abs(hi), abs(mid), 1e-300)
            assert abs(resid) / scale < 1e-12

    def test_miller_oracle_agreement(self):
        t = 0.7
        ref = miller_j(12, t)
        got = np.array([_fold(sp.jv, n, t)[0] for n in range(13)])
        assert_allclose(got, ref, rtol=1e-12)

    def test_domain_and_range_errors(self):
        with pytest.raises(DomainError):
            _check(0, 0.0)
        with pytest.raises(DomainError):
            _check(0, -1.0)
        with pytest.raises(RangeError):
            _check(300, 1.0)


class TestHankel1:
    def test_definition(self):
        # H = J + iY holds to rounding: the H path is not J + iY itself
        for t in (0.3, 1.7, 9.0, 6.3e3):
            for n in (0, 1, 7):
                h, hp = _fold(sp.hankel1, n, t)
                j, jp, y, yp = jy(n, t)
                assert abs(h - (j + 1j * y)) < 1e-14 * abs(h)
                assert abs(hp - (jp + 1j * yp)) < 1e-14 * abs(hp)

    def test_recurrence(self):
        t = 2.2
        for n in range(1, 20):
            hm, _ = _fold(sp.hankel1, n - 1, t)
            h, _ = _fold(sp.hankel1, n, t)
            hp_, _ = _fold(sp.hankel1, n + 1, t)
            resid = hm + hp_ - (2.0 * n / t) * h
            assert abs(resid) / abs(h) < 1e-11

    def test_small_argument_growth(self):
        # |H_5(t)| ~ (2/t)^5 Gamma(5) / pi for small t
        h, _ = _fold(sp.hankel1, 5, 0.1)
        leading = (2.0 / 0.1) ** 5 * math.factorial(4) / np.pi
        assert abs(abs(h) - leading) / leading < 0.05


class TestSequences:
    """Order sweeps -n_max..n_max, as the MSR model matrices take them."""

    @pytest.mark.parametrize("n_max, t", [(0, 2.0), (1, 0.7), (6, 1.1), (12, 6.3e3)])
    def test_negative_order_fold(self, n_max, t):
        # every order against J + iY with the recurrence derivative
        # Z_n' = Z_{n-1} - (n/t) Z_n, the route the model matrices took before
        for n in range(-n_max, n_max + 1):
            h, hp = _fold(sp.hankel1, n, t)
            (j_lo, _, y_lo, _), (j, _, y, _) = jy(n - 1, t), jy(n, t)
            want_h = j + 1j * y
            want_hp = (j_lo + 1j * y_lo) - (n / t) * want_h
            assert abs(h - want_h) < 1e-13 * abs(want_h)
            assert abs(hp - want_hp) < 1e-12 * abs(want_hp)


@pytest.mark.parametrize("z", [sp.jv, sp.yv, sp.hankel1], ids=["jv", "yv", "hankel1"])
def test_order_zero_fold_is_the_three_order_formula(z):
    # at n = 0 _fold evaluates orders 0 and 1 and takes Z_{-1} = -Z_1: the
    # value and derivative equal the three-order formula bit for bit on the
    # installed scipy
    t = np.geomspace(1e-3, 1e3, 20001)
    zs = z(np.array([-1, 0, 1])[:, None], t)
    val, der = _fold(z, 0, t)
    assert np.array_equal(val, zs[1]) and np.array_equal(der, (zs[0] - zs[2]) / 2.0)
    # a scalar argument takes the same route
    for i in (0, 7000, 20000):
        assert _fold(z, 0, t[i]) == (val[i], der[i])
