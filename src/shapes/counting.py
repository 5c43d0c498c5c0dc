"""Graded counting layer: q-series, shape polynomials, level dimensions.

Everything here is exact integer arithmetic on polynomials (or explicitly
truncated series) in the grading variable q.  The grade of a state is its
total node count, which is also the oscillator energy in that realization.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum

from .errors import InternalConsistencyError


class Statistics(Enum):
    """Particle exchange statistics."""

    FERMION = "fermion"
    BOSON = "boson"

    @classmethod
    def parse(cls, text: str) -> "Statistics":
        for stat in cls:
            if isinstance(text, str) and stat.value == text.lower():
                return stat
        raise ValueError(f"unknown statistics {text!r} (expected fermion or boson)")


FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


class GradedQPolynomial:
    """Sparse integer polynomial (or truncated series) in q.

    ``coeffs`` maps degree -> nonzero integer coefficient.  If
    ``truncation_degree`` is None the object is an exact polynomial and all
    arithmetic on it is exact; otherwise coefficients above the truncation
    degree are unknown and are dropped.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs", "truncation_degree")

    def __init__(self, coeffs=None, truncation_degree=None):
        if truncation_degree is not None and truncation_degree < 0:
            raise ValueError("truncation degree must be non-negative")
        cleaned = {}
        for deg, c in (coeffs or {}).items():
            if deg < 0:
                raise ValueError("negative degree in q-polynomial")
            if truncation_degree is not None and deg > truncation_degree:
                continue
            if c:
                cleaned[int(deg)] = int(c)
        self.coeffs = cleaned
        self.truncation_degree = truncation_degree

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation_degree=None):
        return cls({}, truncation_degree)

    @classmethod
    def one(cls, truncation_degree=None):
        return cls({0: 1}, truncation_degree)

    @classmethod
    def monomial(cls, degree, coeff=1, truncation_degree=None):
        return cls({degree: coeff}, truncation_degree)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_exact(self):
        return self.truncation_degree is None

    def coefficient(self, degree):
        """Coefficient of q^degree; raises if the degree was truncated away."""
        if self.truncation_degree is not None and degree > self.truncation_degree:
            raise ValueError(
                f"coefficient of q^{degree} unknown: series truncated at "
                f"degree {self.truncation_degree}"
            )
        return self.coeffs.get(degree, 0)

    def degree(self):
        """Highest nonzero degree, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def lowest_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def coefficient_list(self):
        """(lowest degree, dense coefficient list up to the highest degree)."""
        if not self.coeffs:
            return 0, []
        lo, hi = min(self.coeffs), max(self.coeffs)
        return lo, [self.coeffs.get(g, 0) for g in range(lo, hi + 1)]

    def is_palindromic(self):
        _, cs = self.coefficient_list()
        return cs == cs[::-1]

    def evaluate_at_one(self):
        if not self.is_exact:
            raise ValueError("cannot evaluate a truncated series at q=1")
        return sum(self.coeffs.values())

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _merge_truncation(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __eq__(self, other):
        if not isinstance(other, GradedQPolynomial):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.truncation_degree == other.truncation_degree
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.truncation_degree))

    def __add__(self, other):
        trunc = self._merge_truncation(self.truncation_degree, other.truncation_degree)
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return GradedQPolynomial(out, trunc)

    def __neg__(self):
        return GradedQPolynomial(
            {d: -c for d, c in self.coeffs.items()}, self.truncation_degree
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedQPolynomial(
                {d: c * other for d, c in self.coeffs.items()}, self.truncation_degree
            )
        trunc = self._merge_truncation(self.truncation_degree, other.truncation_degree)
        out = {}
        for da, ca in self.coeffs.items():
            for db, cb in other.coeffs.items():
                deg = da + db
                if trunc is not None and deg > trunc:
                    continue
                out[deg] = out.get(deg, 0) + ca * cb
        return GradedQPolynomial(out, trunc)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = GradedQPolynomial.one(self.truncation_degree)
        for _ in range(exponent):
            result = result * self
        return result

    def divide_exact(self, divisor):
        """Exact polynomial division; the remainder must vanish.

        Both operands must be exact polynomials.  Classic descending long
        division; a nonzero remainder raises InternalConsistencyError.
        """
        if not (self.is_exact and divisor.is_exact):
            raise ValueError("exact division requires exact polynomials")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.coeffs)
        quot = {}
        ddeg = divisor.degree()
        dlead = divisor.coeffs[ddeg]
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                break
            c, r = divmod(rem[rdeg], dlead)
            if r:
                break
            shift = rdeg - ddeg
            quot[shift] = c
            for deg, dc in divisor.coeffs.items():
                k = deg + shift
                nv = rem.get(k, 0) - c * dc
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        if rem:
            raise InternalConsistencyError(
                f"exact polynomial division left remainder of degree {max(rem)}"
            )
        return GradedQPolynomial(quot)

    def divide_by_int(self, divisor):
        """Divide every coefficient by an integer, asserting divisibility."""
        out = {}
        for deg, c in self.coeffs.items():
            q, r = divmod(c, divisor)
            if r:
                raise InternalConsistencyError(
                    f"coefficient {c} of q^{deg} is not divisible by {divisor}"
                )
            out[deg] = q
        return GradedQPolynomial(out, self.truncation_degree)

    # -- presentation ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for deg in sorted(self.coeffs):
                c = self.coeffs[deg]
                if deg == 0:
                    term = str(abs(c))
                else:
                    mag = "" if abs(c) == 1 else str(abs(c))
                    term = f"{mag}q" if deg == 1 else f"{mag}q^{deg}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                else:
                    parts.append(f"+ {term}" if c > 0 else f"- {term}")
            body = " ".join(parts)
        if self.truncation_degree is not None:
            body += f" + O(q^{self.truncation_degree + 1})"
        return body

    def __repr__(self):
        return f"GradedQPolynomial({self.coeffs!r}, {self.truncation_degree!r})"

    def to_json_obj(self):
        lo, cs = self.coefficient_list()
        return {"lowest": lo, "coeffs": cs}


def euler_series(n, truncation, statistics=FERMION):
    """Graded partition series of n identical particles in one dimension.

    For fermions this is q^(n(n-1)/2) * prod_{k=1..n} 1/(1-q^k), truncated at
    the given degree; the bosonic series drops the ground-state shift.  n=0
    gives the constant series 1.
    """
    if n < 0:
        raise ValueError("particle count must be non-negative")
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    shift = n * (n - 1) // 2 if statistics is FERMION else 0
    coeffs = [int(j == shift) for j in range(truncation + 1)]
    return _divided(coeffs, range(1, n + 1))


def _divided(coeffs, ks):
    """The series of a coefficient list, truncated after its last entry,
    divided by 1 - q^k for each k: a running sum with stride k, linear in
    the truncation degree per factor."""
    for k in ks:
        for start in range(k):
            coeffs[start::k] = itertools.accumulate(coeffs[start::k])
    return GradedQPolynomial(dict(enumerate(coeffs)), len(coeffs) - 1)


def shape_recursion_factor(n, k):
    """The exact polynomial (1-q^n)...(1-q^(n-k+1)) / (1-q^k).

    One of the k consecutive exponents in the numerator is divisible by k,
    so the division is exact; a nonzero remainder aborts.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    numerator = GradedQPolynomial.one()
    for j in range(n - k + 1, n + 1):
        numerator = numerator * GradedQPolynomial({0: 1, j: -1})
    return numerator.divide_exact(GradedQPolynomial({0: 1, k: -1}))


@functools.lru_cache(maxsize=None)
def shape_polynomial(n, d, statistics=FERMION):
    """Generating polynomial counting shapes of n particles in d dimensions.

    Computed from the exact recursion
        n * P(n) = sum_k (-1)^(k+1) [C(n,k)]^d P(n-k)      (fermions)
    with the alternating sign dropped for bosons; P(0) = P(1) = 1.  The
    result has non-negative integer coefficients and P(q=1) = n!^(d-1).
    """
    if n < 0:
        raise ValueError("particle count must be non-negative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    table = [GradedQPolynomial.one(), GradedQPolynomial.one()]
    for m in range(2, n + 1):
        acc = GradedQPolynomial.zero()
        for k in range(1, m + 1):
            term = shape_recursion_factor(m, k) ** d * table[m - k]
            if statistics is FERMION and k % 2 == 0:
                term = -term
            acc = acc + term
        poly = acc.divide_by_int(m)
        if any(c < 0 for c in poly.coeffs.values()):
            raise InternalConsistencyError(
                f"shape polynomial recursion produced a negative coefficient "
                f"at n={m}, d={d}, {statistics.value}"
            )
        table.append(poly)
    return table[n] if n >= 1 else table[0]


def sector_shape_counts(n, d, statistics=FERMION):
    """Shapes per sector: {per-axis degree tuple: count}, zeros omitted.

    A state's sector is the tuple of its per-axis degree totals, and every
    shape lies in one.  The counts come from shape_polynomial's recursion
    with [C(n,k)]^d replaced by prod_axis [C(n,k)] in that axis's own
    variable q_axis, the multigraded Hilbert series of the free module the
    shapes generate.  Summing the counts of one total degree gives that
    degree's coefficient of shape_polynomial.
    """
    if n < 0:
        raise ValueError("particle count must be non-negative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    one = {(0,) * d: 1}
    table = [one, one]
    for m in range(2, n + 1):
        acc = {}
        for k in range(1, m + 1):
            sign = -1 if statistics is FERMION and k % 2 == 0 else 1
            factor = shape_recursion_factor(m, k).coeffs.items()
            for per_axis in itertools.product(factor, repeat=d):
                shift = tuple(deg for deg, _ in per_axis)
                coeff = sign * math.prod(c for _, c in per_axis)
                for sector, c in table[m - k].items():
                    key = tuple(map(operator.add, shift, sector))
                    acc[key] = acc.get(key, 0) + coeff * c
        counts = {}
        for sector, c in acc.items():
            q, r = divmod(c, m)
            if r or q < 0:
                raise InternalConsistencyError(
                    f"sector shape recursion produced {c}/{m} shapes in sector "
                    f"{sector} at n={m}, d={d}, {statistics.value}"
                )
            if q:
                counts[sector] = q
        table.append(counts)
    return table[n]


def total_shape_count(n, d):
    """Total number of shapes, n!^(d-1)."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return math.factorial(n) ** (d - 1)


def dimension_series(n, d, truncation, statistics=FERMION):
    """Graded dimension series of the full n-particle space in d dimensions.

    This is the shape polynomial times the d-th power of the unshifted
    one-dimensional series prod 1/(1-q^k); for fermions the ground shift is
    carried by the shape polynomial itself, divided n d times (_divided).
    """
    shapes = shape_polynomial(n, d, statistics)
    coeffs = [shapes.coeffs.get(j, 0) for j in range(truncation + 1)]
    return _divided(coeffs, list(range(1, n + 1)) * d)


def level_dimension(n, d, grade, statistics=FERMION):
    """Number of Slater-determinant (or permanent) states of a given grade."""
    if grade < 0:
        raise ValueError("grade must be non-negative")
    return dimension_series(n, d, grade, statistics).coefficient(grade)
