import numpy as np
import pytest

from coneradon import specfun
from coneradon.specfun import bessel_j0, bessel_j1

from oracles import j0_first_zero, j0_quadrature


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_one_against_quadrature(self):
        ref = float(j0_quadrature(1.0, 8192))
        assert bessel_j0(1.0) == pytest.approx(ref, abs=1e-9)
        assert bessel_j0(1.0) == pytest.approx(0.765197687, abs=1e-9)

    def test_first_zero(self):
        zero = j0_first_zero()
        assert abs(bessel_j0(zero)) <= 1e-9
        assert abs(bessel_j0(2.404826)) <= 1e-6

    def test_even(self):
        x = np.linspace(0.1, 60.0, 100)
        np.testing.assert_array_equal(bessel_j0(-x), bessel_j0(x))

    def test_quadrature_identity_random(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 30.0, size=100)
        err = np.abs(j0_quadrature(a, 4096) - bessel_j0(a))
        assert err.max() <= 1e-8

    def test_wide_range_accuracy(self):
        x = np.linspace(0.0, 200.0, 2001)
        err = np.abs(bessel_j0(x) - j0_quadrature(x, 8192))
        assert err.max() <= 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bessel_j0(np.nan)
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, np.inf]))


class TestBesselJ1:
    def test_at_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_at_one_against_derivative_oracle(self):
        h = 1e-5
        ref = -(float(j0_quadrature(1.0 + h, 8192)) - float(j0_quadrature(1.0 - h, 8192))) / (2 * h)
        assert bessel_j1(1.0) == pytest.approx(ref, abs=1e-8)
        assert bessel_j1(1.0) == pytest.approx(0.440050586, abs=1e-9)

    def test_small_argument_limit(self):
        x = 1e-8
        assert bessel_j1(x) / x == pytest.approx(0.5, abs=1e-6)

    def test_odd(self):
        x = np.linspace(0.1, 60.0, 100)
        np.testing.assert_array_equal(bessel_j1(-x), -bessel_j1(x))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bessel_j1(float("inf"))


class TestBesselIdentities:
    def test_derivative_identity(self):
        # J0'(x) = -J1(x), with J0' by central difference.
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 50.0, size=200)
        h = 1e-5
        d = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
        assert np.abs(d + bessel_j1(x)).max() <= 1e-7

    def test_recurrence(self):
        # Bessel's equation with J0' = -J1 gives J0''(x) + J0(x) = J1(x)/x;
        # J0'' by second central difference.
        rng = np.random.default_rng(8)
        x = rng.uniform(0.5, 50.0, size=200)
        h = 1e-4
        d2 = (bessel_j0(x + h) - 2 * bessel_j0(x) + bessel_j0(x - h)) / (h * h)
        assert np.abs(d2 + bessel_j0(x) - bessel_j1(x) / x).max() <= 1e-6

    @pytest.mark.parametrize("upper", [1.0, 5.0, 20.0])
    def test_integral_identity(self, upper):
        # int_0^x v J0(v) dv = x J1(x), trapezoid with 1e5 nodes.
        v = np.linspace(0.0, upper, 100_001)
        integral = np.trapezoid(v * bessel_j0(v), v)
        assert abs(integral - upper * bessel_j1(upper)) <= 1e-7


class TestHornerInPlace:
    """The in-place polynomial loops give the bits of the plain Horner rule."""

    @staticmethod
    def arguments():
        # z = x^2 for x <= 5 and z = (5/x)^2 beyond, as _j0 and _j1 pass them.
        x = np.random.default_rng(0).uniform(0.0, 60.0, 2000)
        return np.concatenate([x[x <= 5.0] ** 2, (5.0 / x[x > 5.0]) ** 2])

    @pytest.mark.parametrize(
        "name",
        ["_RP0", "_RQ0", "_PP0", "_PQ0", "_QP0", "_QQ0",
         "_RP1", "_RQ1", "_PP1", "_PQ1", "_QP1", "_QQ1"],
    )
    def test_polevl(self, name):
        coeffs = getattr(specfun, name)
        z = self.arguments()
        expected = np.full_like(z, coeffs[0])
        for c in coeffs[1:]:
            expected = expected * z + c
        np.testing.assert_array_equal(specfun._polevl(z, coeffs), expected)
