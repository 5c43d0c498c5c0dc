"""Exact multivariate polynomial algebra over formal powers.

A single-particle state is an orbital vector of d non-negative exponents
(node counts per axis).  A monomial assigns one orbital vector to each of
the n particles and is stored as a flat tuple of length n*d (row-major:
particle index major, axis minor).  Polynomials are finitely supported maps
from monomials to exact rationals.

The canonical order used everywhere compares orbital vectors by total
degree first, then lexicographically on the entries, and compares monomials
particle row by particle row.  This order is multiplicative, it fixes every
determinant's phase repo-wide, and it makes the leading monomial of each
Slater/permanent state the descending-diagonal assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import add

from .counting import Statistics, FERMION
from .errors import InternalConsistencyError

AXIS_NAMES = "tuvw"


def axis_name(axis):
    return AXIS_NAMES[axis] if axis < len(AXIS_NAMES) else f"x{axis}"


def orbital_key(orbital):
    """Sort key realizing the canonical order on orbital vectors."""
    return (sum(orbital), orbital)


def monomial_rows(flat, d):
    return tuple(flat[i : i + d] for i in range(0, len(flat), d))


def monomial_sort_key(flat, d):
    """Sort key for monomials: per-particle orbital keys, row by row."""
    return tuple((sum(flat[i : i + d]), flat[i : i + d]) for i in range(0, len(flat), d))


def _as_exact(value):
    """Normalize a coefficient to an exact number: int when integral,
    Fraction otherwise.  Python ints and Fractions mix exactly."""
    if isinstance(value, int):
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


class ExactPolynomial:
    """Finitely supported map from n*d exponent monomials to Fractions."""

    __slots__ = ("n", "d", "terms")

    def __init__(self, n, d, terms=None):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        self.n = n
        self.d = d
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != n * d:
                raise ValueError("monomial length does not match n*d")
            c = _as_exact(coeff)
            if c:
                self.terms[tuple(mono)] = c

    @classmethod
    def _raw(cls, n, d, terms):
        # Internal: terms already clean (tuple keys, nonzero Fractions).
        poly = cls.__new__(cls)
        poly.n = n
        poly.d = d
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, n, d):
        return cls._raw(n, d, {})

    @classmethod
    def constant(cls, n, d, value=1):
        c = _as_exact(value)
        if not c:
            return cls.zero(n, d)
        return cls._raw(n, d, {(0,) * (n * d): c})

    @classmethod
    def variable(cls, n, d, particle, axis, power=1):
        """The single monomial t_particle^power on the given axis."""
        flat = [0] * (n * d)
        flat[particle * d + axis] = power
        return cls._raw(n, d, {tuple(flat): 1})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.n != other.n or self.d != other.d:
            raise ValueError(
                f"polynomials over different variables: "
                f"(n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def is_homogeneous(self):
        grades = {sum(m) for m in self.terms}
        return len(grades) <= 1

    def grade(self):
        """Common total degree; None for the zero polynomial."""
        grades = {sum(m) for m in self.terms}
        if not grades:
            return None
        if len(grades) > 1:
            raise ValueError("polynomial is not homogeneous")
        return grades.pop()

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=lambda m: monomial_sort_key(m, self.d))

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.n == other.n and self.d == other.d and self.terms == other.terms

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            nv = out.get(mono, 0) + coeff
            if nv:
                out[mono] = nv
            else:
                out.pop(mono, None)
        return ExactPolynomial._raw(self.n, self.d, out)

    def __neg__(self):
        return ExactPolynomial._raw(
            self.n, self.d, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_exact(other)
            if not c:
                return ExactPolynomial.zero(self.n, self.d)
            return ExactPolynomial._raw(
                self.n, self.d, {m: c * v for m, v in self.terms.items()}
            )
        self._check_compatible(other)
        out = {}
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(map(add, ma, mb))
                nv = get(key, 0) + ca * cb
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return ExactPolynomial._raw(self.n, self.d, out)

    __rmul__ = __mul__

    # -- presentation ---------------------------------------------------------

    def _format_monomial(self, mono):
        factors = []
        for i in range(self.n):
            for ax in range(self.d):
                e = mono[i * self.d + ax]
                if e == 1:
                    factors.append(f"{axis_name(ax)}{i + 1}")
                elif e > 1:
                    factors.append(f"{axis_name(ax)}{i + 1}^{e}")
        return "*".join(factors) if factors else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda m: monomial_sort_key(m, self.d), reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            body = self._format_monomial(m)
            mag = abs(c)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"ExactPolynomial(n={self.n}, d={self.d}, {len(self.terms)} terms)"

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        monos = sorted(self.terms, key=lambda m: monomial_sort_key(m, self.d), reverse=True)
        return {
            "n": self.n,
            "d": self.d,
            "terms": [
                {
                    "matrix": [list(r) for r in monomial_rows(m, self.d)],
                    "coeff": format_fraction(self.terms[m]),
                }
                for m in monos
            ],
        }

    @classmethod
    def from_json_obj(cls, obj):
        """Read a polynomial as to_json_obj writes it, checking every term.

        Raises ValueError if obj is not an object, n or d is not a positive
        integer, or terms is not a list of objects, and, naming the term, on
        a missing matrix or coefficient, a matrix that is not n x d
        non-negative integers, a matrix listed twice or a coefficient that
        is not a fraction string.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a polynomial is a JSON object, got {type(obj).__name__}")
        n, d = json_int(obj, "n", 1), json_int(obj, "d", 1)
        terms = {}
        for position, entry in enumerate(json_list(obj, "terms")):
            if not isinstance(entry, dict):
                raise ValueError(f"polynomial terms entry {entry!r} is not an object")
            matrix = json_field(entry, "matrix", f"polynomial terms entry {position}")
            text = json_field(entry, "coeff", f"polynomial term {matrix}")
            try:
                if not (
                    isinstance(matrix, list)
                    and len(matrix) == n
                    and all(isinstance(r, list) and len(r) == d for r in matrix)
                ):
                    raise ValueError(f"matrix is not {n} x {d}")
                flat = tuple(e for row in matrix for e in row)
                if not all(type(e) is int and e >= 0 for e in flat):
                    raise ValueError("exponents must be non-negative integers")
                if flat in terms:
                    raise ValueError("listed twice")
                terms[flat] = parse_fraction(text)
            except ValueError as exc:
                raise ValueError(f"polynomial term {matrix}: {exc}") from None
        return cls(n, d, terms)


def format_fraction(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(text):
    if not isinstance(text, str):
        raise ValueError(f"coefficient {text!r} is not a fraction string")
    return Fraction(text)


def json_field(obj, key, owner):
    """obj[key], else a ValueError naming the missing key and its owner."""
    if key not in obj:
        raise ValueError(f"{owner} has no {key!r}")
    return obj[key]


def json_int(obj, key, minimum):
    """obj[key] if it is an integer (not a bool) >= minimum, else ValueError."""
    value = obj.get(key)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def json_list(obj, key):
    """obj[key] if it is a list, else ValueError."""
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class SlaterState:
    """Ordered list of n orbital vectors with the canonical sign convention.

    Orbitals are kept sorted descending in the canonical order; for fermions
    they must be pairwise distinct (Pauli), for bosons repeats are allowed.
    The determinant/permanent phase is fixed by this sorted row order.
    """

    orbitals: tuple
    statistics: Statistics

    def __post_init__(self):
        if not self.orbitals:
            raise ValueError("a state needs at least one orbital")
        d = len(self.orbitals[0])
        for orb in self.orbitals:
            if len(orb) != d:
                raise ValueError("orbitals of mixed dimension")
            if any(e < 0 for e in orb):
                raise ValueError("negative exponent in orbital")
        keys = [orbital_key(o) for o in self.orbitals]
        if self.statistics is FERMION:
            if any(a <= b for a, b in zip(keys, keys[1:])):
                raise ValueError(
                    "fermion orbitals must be strictly descending in canonical order"
                )
        else:
            if any(a < b for a, b in zip(keys, keys[1:])):
                raise ValueError(
                    "boson orbitals must be non-increasing in canonical order"
                )

    @classmethod
    def from_orbitals(cls, orbitals, statistics):
        """Build a state from orbitals in any order (canonicalizes the sign).

        Every exponent must be an integer; a float or a bool is refused,
        not truncated.
        """
        orbs = tuple(tuple(o) for o in orbitals)
        for orb in orbs:
            for e in orb:
                if type(e) is not int:
                    raise ValueError(f"orbital exponent {e!r} is not an integer")
        if statistics is FERMION and len(set(orbs)) != len(orbs):
            raise ValueError("fermion orbitals must be pairwise distinct")
        return cls(tuple(sorted(orbs, key=orbital_key, reverse=True)), statistics)

    @property
    def n(self):
        return len(self.orbitals)

    @property
    def d(self):
        return len(self.orbitals[0])

    @property
    def grade(self):
        return sum(sum(o) for o in self.orbitals)

    @property
    def sector(self):
        """The tuple of per-axis degree totals."""
        return tuple(map(sum, zip(*self.orbitals)))

    def leading_monomial(self):
        """Largest monomial of the expansion: particle i carries orbital i."""
        return tuple(e for orb in self.orbitals for e in orb)

    def leading_coefficient(self):
        """Coefficient of the leading monomial: 1 for fermions, the product
        of multiplicities' factorials for bosons."""
        if self.statistics is FERMION:
            return 1
        coeff = 1
        run = 1
        for prev, cur in zip(self.orbitals, self.orbitals[1:]):
            run = run + 1 if prev == cur else 1
            coeff *= run
        return coeff

    def expand(self):
        """Expand the Slater determinant (fermion) or permanent (boson).

        Sums over all n! assignments of orbitals to particles, with the sign
        of the permutation relative to the canonical descending row order in
        the fermion case.  The result is homogeneous of the state's grade
        with integer coefficients.
        """
        n, d = self.n, self.d
        fermion = self.statistics is FERMION
        terms = {}
        for perm in permutations(range(n)):
            flat = [0] * (n * d)
            for i, p in enumerate(perm):
                flat[p * d : (p + 1) * d] = self.orbitals[i]
            key = tuple(flat)
            sign = _permutation_sign(perm) if fermion else 1
            nv = terms.get(key, 0) + sign
            if nv:
                terms[key] = nv
            else:
                terms.pop(key, None)
        return ExactPolynomial._raw(n, d, terms)

    def __str__(self):
        inner = ",".join("(" + ",".join(map(str, o)) + ")" for o in self.orbitals)
        return f"|{inner}|"


def _permutation_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def euler_power(m, k, axis, n, d):
    """k-th monomial-wise power of e_m on one axis; k = 1 gives e_m itself.

    Powers are taken subset product by subset product (a plethysm with the
    power sum), so distinct (m, k) on one axis have disjoint supports:
    e_1^2 -> t_1^2 + t_2^2 + ..., never (t_1 + t_2 + ...)^2.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    if k < 1:
        raise ValueError("need k >= 1")
    terms = {}
    for subset in combinations(range(n), m):
        flat = [0] * (n * d)
        for i in subset:
            flat[i * d + axis] = k
        terms[tuple(flat)] = 1
    return ExactPolynomial._raw(n, d, terms)


@dataclass(frozen=True)
class EulerMonomial:
    """A monomial of Euler bosons: exponents[axis][m-1] = power of e_m(axis).

    Powers are interpreted monomial-wise as in euler_power, so the
    materialized polynomial is the product of one euler_power factor per
    nonzero exponent.  The empty monomial materializes to the constant 1.
    """

    n: int
    d: int
    exponents: tuple

    @property
    def degree(self):
        return sum(
            m * k
            for per_axis in self.exponents
            for m, k in enumerate(per_axis, start=1)
        )

    def factors(self):
        """The factors e_m^[k](axis) as (m, k, axis), axis-major, m ascending."""
        return [
            (m, k, axis)
            for axis, per_axis in enumerate(self.exponents)
            for m, k in enumerate(per_axis, start=1)
            if k
        ]

    def materialize(self):
        poly = ExactPolynomial.constant(self.n, self.d)
        for m, k, axis in self.factors():
            poly = poly * euler_power(m, k, axis, self.n, self.d)
        return poly

    def label(self):
        names = []
        for m, k, axis in self.factors():
            name = f"e{m}({axis_name(axis)})"
            names.append(name if k == 1 else f"{name}^{k}")
        return "*".join(names) if names else "1"

    def __str__(self):
        return self.label()


def enumerate_euler_monomials(n, d, degree):
    """All Euler-boson monomials of the given total degree.

    Multi-indices {k_(m,axis)} with sum over (m, axis) of m*k = degree, in a
    deterministic order (axis-major positions, exponents ascending).  Degree
    0 yields exactly the empty monomial.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    positions = [(axis, m) for axis in range(d) for m in range(1, n + 1)]
    out = []
    exps = [[0] * n for _ in range(d)]

    def rec(pos, remaining):
        if pos == len(positions):
            if remaining == 0:
                out.append(
                    EulerMonomial(n, d, tuple(tuple(per) for per in exps))
                )
            return
        axis, m = positions[pos]
        for k in range(remaining // m + 1):
            exps[axis][m - 1] = k
            rec(pos + 1, remaining - m * k)
        exps[axis][m - 1] = 0

    rec(0, degree)
    return out


def enumerate_basis(n, d, grade, statistics=FERMION):
    """All Slater/permanent states of exactly the given grade.

    States are listed descending by their orbital tuple in the canonical
    order (equivalently, descending by leading monomial), which is the
    coordinate order used for level bases and complements.
    """
    if grade < 0:
        raise ValueError("grade must be non-negative")
    candidates = _orbitals_up_to(d, grade)
    degrees = [sum(o) for o in candidates]
    fermion = statistics is FERMION
    out = []
    chosen = []

    def rec(start, slots, remaining):
        if slots == 0:
            if remaining == 0:
                out.append(SlaterState(tuple(chosen), statistics))
            return
        for idx in range(start, len(candidates)):
            deg = degrees[idx]
            if fermion and len(candidates) - idx < slots:
                break
            if deg > remaining:
                continue
            # Max achievable with the remaining slots from this index on.
            if fermion:
                cap = sum(degrees[idx : idx + slots])
            else:
                cap = deg * slots
            if cap < remaining:
                break
            chosen.append(candidates[idx])
            rec(idx + 1 if fermion else idx, slots - 1, remaining - deg)
            chosen.pop()

    rec(0, n, grade)
    return out


def _orbitals_up_to(d, max_degree):
    """All d-dimensional orbital vectors of degree <= max_degree, descending."""
    orbs = []

    def rec(prefix, remaining):
        if len(prefix) == d:
            orbs.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], max_degree)
    orbs.sort(key=orbital_key, reverse=True)
    return orbs


def vandermonde(n, axis=0, d=1):
    """The product of (t_i - t_j) over i < j on one axis.

    Equals the expansion of the one-dimensional fermion ground state (orbital
    degrees n-1, ..., 1, 0) with the canonical phase; the global sign is +1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    poly = ExactPolynomial.constant(n, d)
    for i in range(n):
        for j in range(i + 1, n):
            binomial = ExactPolynomial.variable(n, d, i, axis) - ExactPolynomial.variable(
                n, d, j, axis
            )
            poly = poly * binomial
    return poly


def divide_exact(dividend, divisor):
    """Exact multivariate division by iterated leading-term elimination.

    Requires the divisor to divide the dividend exactly; otherwise an
    InternalConsistencyError reports the offending leading monomial.
    """
    dividend._check_compatible(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    d = dividend.d
    div_lead = divisor.leading_monomial()
    div_lead_coeff = divisor.terms[div_lead]
    quotient = {}
    rem = ExactPolynomial._raw(dividend.n, d, dict(dividend.terms))
    while not rem.is_zero:
        lead = rem.leading_monomial()
        diff = tuple(a - b for a, b in zip(lead, div_lead))
        if any(e < 0 for e in diff):
            raise InternalConsistencyError(
                f"polynomial division has nonzero remainder; stuck at "
                f"leading monomial {lead}"
            )
        coeff = Fraction(rem.terms[lead]) / div_lead_coeff
        quotient[diff] = coeff
        rem = rem - ExactPolynomial(dividend.n, d, {diff: coeff}) * divisor
    return ExactPolynomial(dividend.n, d, quotient)
