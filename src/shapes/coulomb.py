"""Closed-form Coulomb matrix elements between unnormalized Hermite functions.

The two-body element between products of phi_n(x) = H_n(x) exp(-x^2/2)
reduces, via the Gaussian integral representation of 1/r, to a finite sum of
Hermite linearization coefficients times a Beta-function integral.  All
internal sums run in exact rationals with the symbolic prefactor
sqrt(2) * pi^(d - 1/2 + p) factored out (p = 1 in even dimensions, where the
Beta integral carries one power of pi, else 0); the collapse to float
happens once at the end.

Unnormalized Hermite functions have <phi_n|phi_m> = delta_nm 2^n n! sqrt(pi);
many-body expectations divide by the full state norms, so the outputs are
convention-free.  The same orthogonality contracts the spectator particles
exactly; spectator_buckets and hermite_norm_rational serve the densities in
realize as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def hermite_linearization(n, m):
    """Coefficients a_k with H_n * H_m = sum_k a_k H_k, k = 0 .. n+m.

    a_k = 2^((n+m-k)/2) n! m! / [((m+n-k)/2)! ((k+n-m)/2)! ((k+m-n)/2)!]
    for n+m+k even with all three arguments non-negative, zero otherwise.
    The values are integers.
    """
    if n < 0 or m < 0:
        raise ValueError("Hermite indices must be non-negative")
    out = [0] * (n + m + 1)
    for k in range(abs(n - m), n + m + 1):
        if (n + m + k) % 2:
            continue
        half = (n + m - k) // 2
        num = 2**half * math.factorial(n) * math.factorial(m)
        den = (
            math.factorial(half)
            * math.factorial((k + n - m) // 2)
            * math.factorial((k + m - n) // 2)
        )
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("Hermite linearization coefficient not integral")
        out[k] = q
    return out


def _hermite_at_zero(k):
    """H_k(0): zero for odd k, (-1)^(k/2) k!/(k/2)! for even k."""
    if k % 2:
        return 0
    half = k // 2
    return (-1) ** half * math.factorial(k) // math.factorial(half)


def _gamma_half(two_a):
    """Gamma(two_a / 2) as (rational, power of sqrt(pi)) for two_a >= 1."""
    if two_a < 1:
        raise ValueError("gamma argument must be at least 1/2")
    if two_a % 2 == 0:
        return Fraction(math.factorial(two_a // 2 - 1)), 0
    # Gamma(j + 1/2) = (2j)! / (4^j j!) * sqrt(pi)
    j = (two_a - 1) // 2
    return Fraction(math.factorial(2 * j), 4**j * math.factorial(j)), 1


def beta_integral_exact(d, l):
    """I_d(l) = integral_0^1 (1-w^2)^((d-3)/2) w^l dw, exactly.

    Returns (rational, pi_power): the value is rational * pi^pi_power, with
    pi_power = 1 in even dimensions and 0 in odd ones.  Requires d >= 2 and
    even l >= 0.
    """
    if d < 2:
        raise ValueError("the Beta integral needs d >= 2")
    if l < 0 or l % 2:
        raise ValueError("l must be even and non-negative")
    # (1/2) B((l+1)/2, (d-1)/2)
    num1, p1 = _gamma_half(l + 1)
    num2, p2 = _gamma_half(d - 1)
    den, p3 = _gamma_half(l + d)
    half_pi = p1 + p2 - p3
    if half_pi % 2:
        raise ArithmeticError("unexpected odd power of sqrt(pi)")
    return num1 * num2 / (2 * den), half_pi // 2


def beta_integral(d, l):
    """Floating point value of I_d(l)."""
    rat, pi_pow = beta_integral_exact(d, l)
    return float(rat) * math.pi**pi_pow


def _axis_table(n, np_, m, mp):
    """Per-axis contributions: {k + k' : exact factor}, or None if the axis
    parity n + n' + m + m' is odd (the element then vanishes)."""
    if (n + np_ + m + mp) % 2:
        return None
    a_bra = hermite_linearization(n, m)
    a_ket = hermite_linearization(np_, mp)
    table = {}
    for k, ak in enumerate(a_bra):
        if not ak:
            continue
        for kp, akp in enumerate(a_ket):
            if not akp or (k + kp) % 2:
                continue
            s = k + kp
            factor = (
                Fraction(ak * akp * (-1) ** k * _hermite_at_zero(s), 2 ** (s // 2))
            )
            if factor:
                table[s] = table.get(s, Fraction(0)) + factor
    return table


@lru_cache(maxsize=None)
def _two_body_fraction(bra1, bra2, ket1, ket2, d):
    """Exact rational part R of the two-body element.

    The element equals R * sqrt(2) * pi^(d - 1/2 + p) with p from
    beta_integral_exact; zero whenever any axis has odd total parity.
    """
    acc = {0: Fraction(1)}
    for i in range(d):
        table = _axis_table(bra1[i], bra2[i], ket1[i], ket2[i])
        if table is None:
            return Fraction(0)
        new = {}
        for l, c in acc.items():
            for s, f in table.items():
                key = l + s
                new[key] = new.get(key, Fraction(0)) + c * f
        acc = new
    total = Fraction(0)
    pi_pow = None
    for l, c in acc.items():
        rat, p = beta_integral_exact(d, l)
        if pi_pow is None:
            pi_pow = p
        elif p != pi_pow:
            raise ArithmeticError("inconsistent pi powers across Beta integrals")
        total += c * rat
    return total


def _element_prefactor(d):
    # pi^d * sqrt(2/pi) * pi^p where p is the Beta-integral pi power.
    _, pi_pow = beta_integral_exact(d, 0)
    return math.sqrt(2.0) * math.pi ** (d - 0.5 + pi_pow)


def _canonical_indices(bra1, bra2, ket1, ket2):
    """Symmetry-reduced key: the integrand is real and the two interacting
    particles can be relabeled simultaneously."""
    variants = [
        (bra1, bra2, ket1, ket2),
        (bra2, bra1, ket2, ket1),
        (ket1, ket2, bra1, bra2),
        (ket2, ket1, bra2, bra1),
    ]
    return min(variants)


def two_body_element(bra1, bra2, ket1, ket2, d=None):
    """Coulomb matrix element [n n' | 1/|R-R'| | m m'] between Hermite products.

    Indices are d-tuples of per-axis Hermite quantum numbers for the two
    interacting particles (bra pair, then ket pair).  Vanishes exactly
    whenever any axis has odd total parity.
    """
    tuples = tuple(tuple(int(e) for e in v) for v in (bra1, bra2, ket1, ket2))
    if d is None:
        d = len(tuples[0])
    if any(len(v) != d for v in tuples):
        raise ValueError("index tuples must all have length d")
    if any(e < 0 for v in tuples for e in v):
        raise ValueError("Hermite indices must be non-negative")
    rat = _two_body_fraction(*_canonical_indices(*tuples), d)
    if not rat:
        return 0.0
    return float(rat) * _element_prefactor(d)


def hermite_norm_rational(indices):
    """Product over the indices of 2^e e!, an int.

    The norm of a product of unnormalized Hermite functions is this times
    sqrt(pi) per index, since <phi_a|phi_b> = delta_ab 2^a a! sqrt(pi).
    """
    rat = 1
    for e in indices:
        rat *= 2**e * math.factorial(e)
    return rat


def state_norm_rational(terms):
    """<Psi|Psi> over sqrt(pi)^(n*d) for (monomial, coeff) terms, exactly."""
    total = Fraction(0)
    for mono, coeff in terms:
        total += coeff * coeff * hermite_norm_rational(mono)
    return total


def spectator_buckets(terms, retained, d):
    """Group (monomial, coeff) terms by the rows of particles retained..n-1.

    Returns {spectator exponents: [(retained rows, coeff), ...]} where the
    key is the flat exponent tuple of the spectators and the retained rows
    are the d-tuples of particles 0..retained-1.  Hermite functions are
    orthogonal, so a bra and a ket monomial overlap in the spectators only
    inside one bucket, by hermite_norm_rational(key) times sqrt(pi) per
    spectator axis.
    """
    buckets = {}
    for mono, coeff in terms:
        rows = tuple(mono[p * d : (p + 1) * d] for p in range(retained))
        buckets.setdefault(mono[retained * d :], []).append((rows, coeff))
    return buckets


def coulomb_expectation(bra, ket, basis):
    """<Psi_bra| sum_{i<j} 1/|r_i - r_j| |Psi_ket> / norms.

    Both states are coefficient vectors (dense sequences or sparse dicts)
    over the same LevelBasis, realized as products of unnormalized Hermite
    functions.  Both are antisymmetric or both symmetric, so every particle
    pair contributes the same: particles 0 and 1 go through the closed-form
    two-body element, the spectators through exact Hermite orthogonality,
    and the sum is n(n-1)/2 times that.  Everything is assembled in exact
    rationals and divided by the full state norms, so the result does not
    depend on the normalization convention.
    """
    n, d = basis.n, basis.d
    bra_terms = _monomial_terms(bra, basis)
    ket_terms = _monomial_terms(ket, basis)
    if not bra_terms or not ket_terms:
        raise ValueError("zero state has no Coulomb expectation")
    if n < 2:
        return 0.0
    numerator = Fraction(0)
    ket_buckets = spectator_buckets(ket_terms, 2, d)
    for key, bra_list in spectator_buckets(bra_terms, 2, d).items():
        ket_list = ket_buckets.get(key)
        if not ket_list:
            continue
        pair_sum = Fraction(0)
        for (bi, bj), cb in bra_list:
            for (ki, kj), ck in ket_list:
                tb = _two_body_fraction(*_canonical_indices(bi, bj, ki, kj), d)
                if tb:
                    pair_sum += cb * ck * tb
        numerator += hermite_norm_rational(key) * pair_sum
    numerator *= n * (n - 1) // 2
    bra_norm = state_norm_rational(bra_terms)
    ket_norm = state_norm_rational(ket_terms)
    _, pi_pow = beta_integral_exact(d, 0)
    prefactor = math.sqrt(2.0) * math.pi ** (pi_pow - 0.5)
    return prefactor * float(numerator) / math.sqrt(float(bra_norm * ket_norm))


def _monomial_terms(coeffs, basis):
    poly = basis.materialize(coeffs)
    return list(poly.terms.items())
