"""Independent quadrature oracle for two-body Coulomb matrix elements.

Evaluates the defining 2d-dimensional integral by transforming to
center-of-mass and relative coordinates per axis, R = S + u/2, R' = S - u/2
(unit Jacobian), which turns the Gaussian weight into exp(-2 S^2 - u^2/2)
and removes nothing else.  The polynomial part is expanded exactly in
(S, u); the S integrals are Gauss-Hermite quadratures, the relative
integral goes to spherical coordinates where the 1/|u| singularity cancels
against the volume element: radial moments are Gauss-Hermite quadratures
again (odd moments via a half-line Gauss-Laguerre-style closed sum is not
needed; they reduce to exact factorials), and angular moments over the
sphere are Gauss-Legendre in cos(theta) times a uniform azimuthal grid,
both exact for the trigonometric polynomials that occur.

Nothing here shares code or algebra with shapes.coulomb: no Hermite
linearization, no Beta integrals, no Hermite values at zero.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

GH_NODES = 48
LEG_NODES = 32
AZIMUTHAL_POINTS = 64


def hermite_coefficients(n):
    """Integer coefficient list of H_n via the recurrence
    H_{n+1} = 2 x H_n - 2 n H_{n-1}."""
    coeffs = [[1], [0, 2]]
    while len(coeffs) <= n:
        k = len(coeffs) - 1
        prev, prev2 = coeffs[k], coeffs[k - 1]
        nxt = [0] + [2 * c for c in prev]
        for i, c in enumerate(prev2):
            nxt[i] -= 2 * k * c
        coeffs.append(nxt)
    return coeffs[n]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def shift_to_su(poly, sign):
    """Expand p(S + sign*u/2) into {(a, b): coeff} over S^a u^b, exactly."""
    out = {}
    for r, c in enumerate(poly):
        if not c:
            continue
        for j in range(r + 1):
            key = (r - j, j)
            out[key] = out.get(key, Fraction(0)) + c * math.comb(r, j) * Fraction(
                sign, 2
            ) ** j
    return out


def su_mul(a, b):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


@lru_cache(maxsize=None)
def _gh():
    return hermgauss(GH_NODES)


@lru_cache(maxsize=None)
def gaussian_moment_2s2(a):
    """integral S^a exp(-2 S^2) dS by Gauss-Hermite (S = t / sqrt(2))."""
    nodes, weights = _gh()
    return float(np.sum(weights * (nodes / math.sqrt(2.0)) ** a) / math.sqrt(2.0))


@lru_cache(maxsize=None)
def radial_moment(k):
    """integral_0^inf r^k exp(-r^2/2) dr by Gauss-Hermite for even k,
    exact factorial for odd k."""
    if k % 2:
        j = (k - 1) // 2
        return 2**j * math.factorial(j)
    nodes, weights = _gh()
    vals = np.sum(weights * (math.sqrt(2.0) * nodes) ** k) * math.sqrt(2.0)
    return float(vals) / 2.0


@lru_cache(maxsize=None)
def sphere_moment(exponents):
    """integral over the unit sphere of prod_i n_i^(b_i), by quadrature."""
    if any(b % 2 for b in exponents):
        return 0.0
    d = len(exponents)
    phis = np.arange(AZIMUTHAL_POINTS) * (2 * math.pi / AZIMUTHAL_POINTS)
    if d == 2:
        vals = np.cos(phis) ** exponents[0] * np.sin(phis) ** exponents[1]
        return float(vals.sum() * (2 * math.pi / AZIMUTHAL_POINTS))
    if d == 3:
        cos_nodes, cos_weights = leggauss(LEG_NODES)
        sin2 = 1.0 - cos_nodes**2
        polar = sin2 ** ((exponents[0] + exponents[1]) // 2) * cos_nodes ** exponents[2]
        azim = np.cos(phis) ** exponents[0] * np.sin(phis) ** exponents[1]
        return float(
            np.sum(cos_weights * polar) * azim.sum() * (2 * math.pi / AZIMUTHAL_POINTS)
        )
    raise ValueError("oracle implemented for d in {2, 3}")


@lru_cache(maxsize=None)
def axis_reduction(bra1, bra2, ket1, ket2):
    """One axis with S integrated out: ((b, coeff of u^b), ...).

    Arguments are the axis's Hermite indices of the two particles in the
    bra and in the ket.
    """
    p_bra = poly_mul(hermite_coefficients(bra1), hermite_coefficients(ket1))
    p_ket = poly_mul(hermite_coefficients(bra2), hermite_coefficients(ket2))
    su = su_mul(shift_to_su(p_bra, +1), shift_to_su(p_ket, -1))
    # q_i(u) = sum_b u^b * sum_a c_(a,b) M(a)
    q = {}
    for (a, b), c in su.items():
        q[b] = q.get(b, 0.0) + float(c) * gaussian_moment_2s2(a)
    return tuple(q.items())


def two_body_oracle(bra1, bra2, ket1, ket2):
    """Quadrature value of the two-body Coulomb element."""
    d = len(bra1)
    per_axis = [axis_reduction(bra1[i], bra2[i], ket1[i], ket2[i]) for i in range(d)]
    total = 0.0
    def rec(axis, exps, coeff):
        nonlocal total
        if abs(coeff) < 1e-300:
            return
        if axis == d:
            b_total = sum(exps)
            ang = sphere_moment(tuple(exps))
            if ang:
                total += coeff * radial_moment(b_total + d - 2) * ang
            return
        for b, c in per_axis[axis]:
            rec(axis + 1, exps + [b], coeff * c)

    rec(0, [], 1.0)
    return total
