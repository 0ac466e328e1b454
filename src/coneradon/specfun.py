"""Bessel functions J0 and J1.

The Bessel functions use the classic Cephes rational approximations (Stephen
Moshier's public-domain coefficient tables): a rational fit with the leading
zeros factored out on [0, 5], and the asymptotic trigonometric form with
rational modulus/phase corrections beyond.  Absolute error is a few 1e-16
over the working range; the test suite validates them against quadrature of
the integral representation
J0(a) = (1/2pi) * integral_0^2pi exp(i a cos(theta)) dtheta.
"""

import numpy as np

__all__ = ["bessel_j0", "bessel_j1"]

_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1  # pi/4
_THPIO4 = 2.35619449019234492885  # 3*pi/4

# ---- J0, interval [0, 5]: (z - DR1)(z - DR2) RP(z)/RQ(z) with z = x^2 ----
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_RP0 = (
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
)
_RQ0 = (  # monic
    1.0,
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
)

# ---- J0, interval (5, inf): modulus P(z) and phase Q(z) with z = 25/x^2 ----
_PP0 = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ0 = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP0 = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ0 = (  # monic
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)

# ---- J1, interval [0, 5]: w x (z - Z1)(z - Z2) with w = RP1(z)/RQ1(z) ----
_Z1 = 1.46819706421238932572e1
_Z2 = 4.92184563216946036703e1
_RP1 = (
    -8.99971225705559398224e8,
    4.52228297998194034323e11,
    -7.27494245221818276015e13,
    3.68295732863852883286e15,
)
_RQ1 = (  # monic
    1.0,
    6.20836478118054335476e2,
    2.56987256757748830383e5,
    8.35146791431949253037e7,
    2.21511595479792499675e10,
    4.74914122079991414898e12,
    7.84369607876235854894e14,
    8.95222336184627338078e16,
    5.32278620332680085395e18,
)

# ---- J1, interval (5, inf) ----
_PP1 = (
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
)
_PQ1 = (
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
)
_QP1 = (
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
)
_QQ1 = (  # monic
    1.0,
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
)


def _polevl(x, coeffs):
    # Horner's rule, in place in one output array.
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _asymptotic(x, pp, pq, qp, qq, phase_shift):
    w = 5.0 / x
    z = w * w
    p = _polevl(z, pp) / _polevl(z, pq)
    q = _polevl(z, qp) / _polevl(z, qq)
    xn = x - phase_shift
    return _SQ2OPI * (p * np.cos(xn) - w * q * np.sin(xn)) / np.sqrt(x)


def _j0(x):
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        xs = x[small]
        z = xs * xs
        val = (z - _DR1) * (z - _DR2) * _polevl(z, _RP0) / _polevl(z, _RQ0)
        tiny = xs < 1e-5
        if tiny.any():
            val[tiny] = 1.0 - 0.25 * z[tiny]
        out[small] = val
    big = ~small
    if big.any():
        out[big] = _asymptotic(x[big], _PP0, _PQ0, _QP0, _QQ0, _PIO4)
    return out


def _j1(x):
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        z = x[small] * x[small]
        w = _polevl(z, _RP1) / _polevl(z, _RQ1)
        out[small] = w * x[small] * (z - _Z1) * (z - _Z2)
    big = ~small
    if big.any():
        out[big] = _asymptotic(x[big], _PP1, _PQ1, _QP1, _QQ1, _THPIO4)
    return out


def _eval_jnu(nu: int, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("Bessel functions require finite arguments")
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    out = _j0(np.abs(flat)) if nu == 0 else _j1(np.abs(flat))
    if nu == 1:
        out = np.where(flat < 0, -out, out)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def bessel_j0(x):
    """Bessel function of the first kind of order 0 (even in x)."""
    return _eval_jnu(0, x)


def bessel_j1(x):
    """Bessel function of the first kind of order 1 (odd in x)."""
    return _eval_jnu(1, x)
