"""Closed-form Coulomb matrix elements between unnormalized Hermite functions.

The two-body element between products of phi_n(x) = H_n(x) exp(-x^2/2)
reduces, via the Gaussian integral representation of 1/r, to a finite sum of
Hermite linearization coefficients times a Beta-function integral.  All
internal sums run in integers over one denominator D per (dimension, level),
with the symbolic prefactor sqrt(2) * pi^(d - 1/2 + p) factored out (p = 1
in even dimensions, where the Beta integral carries one power of pi, else
0); one exact division and one collapse to float happen at the end.

Unnormalized Hermite functions have <phi_n|phi_m> = delta_nm 2^n n! sqrt(pi);
many-body expectations divide by the full state norms, so the outputs are
convention-free.  The same orthogonality contracts the spectator particles
exactly.  Many-body expectations contract in the state basis: by the
Slater-Condon rules, with Lowdin's occupation-number factors for permanents,
two Slater/permanent states couple only through the orbital multisets of
size n-2 they share (CoulombOperator), and no state is expanded into its n!
monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .counting import FERMION
from .errors import InternalConsistencyError
from .polycore import _as_exact, multiplicity_factorials


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _axis_table(n, np_, m, mp):
    """Per-axis contributions: a tuple of (s, integer) pairs, s = k + k',
    whose integer is the exact factor at s times 2^(s/2), or None if the
    axis parity n + n' + m + m' is odd (the element then vanishes).  Cached,
    so the result is immutable."""
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
            table[s] = table.get(s, 0) + ak * akp * (-1) ** k * _hermite_at_zero(s)
    return tuple((s, c) for s, c in table.items() if c)


def _two_body_terms(bra1, bra2, ket1, ket2, d):
    """Integer terms ((l, c_l), ...) of the rational part R of the element,
    R = sum_l c_l 2^(-l/2) I_d(l).

    The element equals R * sqrt(2) * pi^(d - 1/2 + p) with p from
    beta_integral_exact; no terms whenever any axis has odd total parity.
    Per axis k <= bra + ket index, so l is at most the sum of the four
    orbitals' degrees.  Not cached: CoulombOperator keeps each pair's
    weighted sum instead, which holds one integer where the terms are a
    tuple per index quadruple.
    """
    acc = {0: 1}
    for i in range(d):
        table = _axis_table(bra1[i], bra2[i], ket1[i], ket2[i])
        if table is None:
            return ()
        new = {}
        for l, c in acc.items():
            for s, f in table:
                new[l + s] = new.get(l + s, 0) + c * f
        acc = new
    return tuple((l, c) for l, c in acc.items() if c)


@lru_cache(maxsize=None)
def _level_weights(d, grade):
    """(D, W) with W[l // 2] = D * 2^(-l/2) * I_d(l) an integer for every
    even l <= 2 * grade, D the least common denominator.

    Two orbital pairs of one level have degree sums of at most the grade
    each, so D * R = sum_l c_l W[l // 2] is an integer for every two-body
    element between states of that level.
    """
    values = []
    pi_pow = None
    for l in range(0, 2 * grade + 1, 2):
        rat, p = beta_integral_exact(d, l)
        if pi_pow is None:
            pi_pow = p
        elif p != pi_pow:
            raise ArithmeticError("inconsistent pi powers across Beta integrals")
        values.append(rat / 2 ** (l // 2))
    denominator = math.lcm(*(v.denominator for v in values))
    return denominator, tuple(v.numerator * (denominator // v.denominator) for v in values)


def _scaled_element(terms, weights):
    """sum_l c_l W[l // 2]: D times the rational part of one two-body element."""
    try:
        return sum(c * weights[l // 2] for l, c in terms)
    except IndexError:
        raise InternalConsistencyError(
            f"two-body term of degree {max(l for l, _ in terms)} exceeds the level "
            f"bound {2 * (len(weights) - 1)}"
        ) from None


def _element_prefactor(d):
    # pi^d * sqrt(2/pi) * pi^p where p is the Beta-integral pi power.
    _, pi_pow = beta_integral_exact(d, 0)
    return math.sqrt(2.0) * math.pi ** (d - 0.5 + pi_pow)


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
    terms = _two_body_terms(*tuples, d)
    if not terms:
        return 0.0
    # l is even and at most the four orbitals' degree sum, so half that sum
    # is a grade whose weights cover every term.
    denominator, weights = _level_weights(d, sum(map(sum, tuples)) // 2)
    rat = Fraction(_scaled_element(terms, weights), denominator)
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


class CoulombOperator:
    """Exact two-body Coulomb matrix between the states of one level.

    ``element(a, b)`` is D <S_a| sum_{i<j} 1/|r_i - r_j| |S_b>, an integer,
    for the Slater/permanent states a and b of a LevelBasis, in units of
    sqrt(2) pi^(d - 1/2 + p) sqrt(pi)^((n-2) d); ``denominator`` is the
    level's D from _level_weights.  ``norm(a)`` is the integer <S_a|S_a> =
    n! mult(a)! N_a (as for R below) in units of sqrt(pi)^(n d).  Hermite
    orthogonality leaves only the Slater-Condon terms, with Lowdin's
    occupation-number factors for permanents: a and b couple through every
    orbital multiset R of size n-2 that both contain (so they differ in at
    most two orbitals), and

        <S_a|V|S_b> = n! sum_R mult(R)! N_R sum eps_a eps_b ([x y|z w] +- [x y|w z]),

    where the inner sum runs over the removed pairs (x, y) of a and (z, w)
    of b that leave R (LevelBasis.rests), eps is the sign of moving the pair
    to the front (1 for permanents), the exchange term carries - for
    fermions and + for bosons, mult(R)! is the product of R's multiplicity
    factorials and N_R its Hermite norm.  Elements, norms and the weights
    mult(R)! N_R are computed on first use and kept, so the maps cover only
    the states asked for.
    """

    def __init__(self, basis):
        self.basis = basis
        self.denominator, self._weights = _level_weights(basis.d, basis.grade)
        self._scale = math.factorial(basis.n)
        self._exchange = -1 if basis.statistics is FERMION else 1
        self._elements = {}
        self._norms = {}
        self._pairs = {}
        self._rest_weights = {}

    def _pair(self, x, y, z, w):
        """D ([x y|z w] +- [x y|w z]) in units of sqrt(2) pi^(d - 1/2 + p),
        for orbitals given by their codes."""
        key = (x, y, z, w)
        value = self._pairs.get(key)
        if value is None:
            d, weights = self.basis.d, self._weights
            x, y, z, w = self.basis.codes.decode(key)
            direct = _scaled_element(_two_body_terms(x, y, z, w, d), weights)
            exchange = _scaled_element(_two_body_terms(x, y, w, z, d), weights)
            value = self._pairs[key] = direct + self._exchange * exchange
        return value

    def element(self, a, b):
        key = (a, b) if a <= b else (b, a)
        value = self._elements.get(key)
        if value is None:
            value = self._element(*key)
            self._elements[key] = value
        return value

    def _element(self, a, b):
        rests_b = self.basis.rests(b, 2)
        total = 0
        for rest, pairs_a in self.basis.rests(a, 2).items():
            pairs_b = rests_b.get(rest)
            if pairs_b is None:
                continue
            pair_sum = 0
            for sa, x, y in pairs_a:
                for sb, z, w in pairs_b:
                    pair_sum += sa * sb * self._pair(x, y, z, w)
            if pair_sum:
                weight = self._rest_weights.get(rest)
                if weight is None:
                    orbitals = self.basis.codes.decode(rest)
                    weight = self._rest_weights[rest] = _multiset_weight(orbitals)
                total += weight * pair_sum
        return self._scale * total

    def norm(self, a):
        value = self._norms.get(a)
        if value is None:
            value = self._norms[a] = self._scale * _multiset_weight(self.basis.orbitals(a))
        return value

    def contract(self, bra, ket):
        """sum_{a, b} bra[a] ket[b] element(a, b) for sparse integer {state: coeff}."""
        ket_by_rest = {}
        for b in ket:
            for rest in self.basis.rests(b, 2):
                ket_by_rest.setdefault(rest, []).append(b)
        total = 0
        for a, ca in bra.items():
            coupled = {b for rest in self.basis.rests(a, 2) for b in ket_by_rest.get(rest, ())}
            row = 0
            for b in coupled:
                value = self.element(a, b)
                if value:
                    row += ket[b] * value
            total += ca * row
        return total


def _multiset_weight(orbitals):
    """Product of multiplicity factorials times the Hermite norm of the
    orbitals (sorted, so equal orbitals are adjacent)."""
    return multiplicity_factorials(orbitals) * hermite_norm_rational(sum(orbitals, ()))


def _integer_support(coeffs):
    """({index: c * L}, L): the nonzero coefficients as integers over their
    least common denominator L."""
    exact = {idx: _as_exact(c) for idx, c in coeffs.items() if c}
    scale = math.lcm(*(c.denominator for c in exact.values()))
    return {idx: c.numerator * (scale // c.denominator) for idx, c in exact.items()}, scale


def coulomb_expectation(bra, ket, basis):
    """<Psi_bra| sum_{i<j} 1/|r_i - r_j| |Psi_ket> / norms.

    Both states are sparse {state index: coeff} vectors over the same
    LevelBasis, realized as products of unnormalized Hermite functions.
    The contraction runs in the state basis: the level's
    CoulombOperator (Slater-Condon rules, with occupation-number factors for
    permanents) gives the integer D <S_a|V|S_b>, held by the basis and
    reused by every call on it.  The numerator sum_{a,b} c_a c'_b <S_a|V|S_b>
    and the state norms are summed in integers over the coefficients'
    common denominators, divided exactly and rounded once, so the result
    does not depend on the normalization convention.
    """
    bra, bra_scale = _integer_support(bra)
    ket, ket_scale = _integer_support(ket)
    if not bra or not ket:
        raise ValueError("zero state has no Coulomb expectation")
    if basis.n < 2:
        return 0.0
    operator = basis.coulomb_operator
    scale = bra_scale * ket_scale
    numerator = Fraction(operator.contract(bra, ket), operator.denominator * scale)
    bra_norm = sum(c * c * operator.norm(a) for a, c in bra.items())
    ket_norm = sum(c * c * operator.norm(b) for b, c in ket.items())
    norms = Fraction(bra_norm * ket_norm, scale * scale)
    _, pi_pow = beta_integral_exact(basis.d, 0)
    prefactor = math.sqrt(2.0) * math.pi ** (pi_pow - 0.5)
    return prefactor * float(numerator) / math.sqrt(float(norms))
