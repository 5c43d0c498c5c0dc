"""Graded counting layer: q-series, shape polynomials, level dimensions.

Everything here is exact integer arithmetic on coefficient lists and numpy
object arrays of Python ints, polynomials (or explicitly truncated series)
in the grading variable q.  The grade of a state is its total node count,
which is also the oscillator energy in that realization.  The graded and
the per-sector shape counts are one recursion (_shape_counts): each factor
(1-q^m)...(1-q^(m-k+1)) / (1-q^k) is k slice differences and one running
sum with stride k along an array axis, and the partition and dimension
series divide by 1 - q^k with the same running sum (_divided).
GradedQPolynomial is the read-only value these functions return.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

import numpy as np

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


def is_fermion(statistics):
    """True for FERMION, False for BOSON; any other value, a string too, is a ValueError."""
    if not isinstance(statistics, Statistics):
        raise ValueError(f"statistics {statistics!r} is not Statistics.FERMION or Statistics.BOSON")
    return statistics is FERMION


class GradedQPolynomial:
    """Sparse integer polynomial (or truncated series) in q, read-only.

    ``coeffs`` maps degree -> nonzero integer coefficient.  If
    ``truncation_degree`` is None the object is an exact polynomial;
    otherwise coefficients above the truncation degree are unknown and are
    dropped.  The arithmetic that builds these values lives in the
    functions below, on coefficient arrays.
    """

    __slots__ = ("coeffs", "truncation_degree")

    def __init__(self, coeffs=None, truncation_degree=None):
        if truncation_degree is not None and truncation_degree < 0:
            raise ValueError("truncation degree must be non-negative")
        cleaned = {}
        for deg, c in (coeffs or {}).items():
            if type(deg) is not int or type(c) is not int:
                raise ValueError(f"q-polynomial terms must be int: int, got {deg!r}: {c!r}")
            if deg < 0:
                raise ValueError("negative degree in q-polynomial")
            if truncation_degree is not None and deg > truncation_degree:
                continue
            if c:
                cleaned[deg] = c
        self.coeffs = cleaned
        self.truncation_degree = truncation_degree

    @property
    def is_zero(self):
        return not self.coeffs

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
        if self.truncation_degree is not None:
            raise ValueError("cannot evaluate a truncated series at q=1")
        return sum(self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, GradedQPolynomial):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.truncation_degree == other.truncation_degree
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.truncation_degree))

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
    shift = n * (n - 1) // 2 if is_fermion(statistics) else 0
    coeffs = [int(j == shift) for j in range(truncation + 1)]
    _divided(coeffs, range(1, n + 1))
    return GradedQPolynomial(dict(enumerate(coeffs)), truncation)


def _divided(coeffs, ks):
    """coeffs, a list or an array along its first axis, divided in place by
    1 - q^k for each k as a series truncated after its last entry: a running
    sum with stride k, linear in the truncation degree per factor."""
    for k in ks:
        for start in range(k):
            coeffs[start::k] = list(itertools.accumulate(coeffs[start::k]))
    return coeffs


def _apply_factor(coeffs, m, k):
    """Multiply an object array along its first axis, in place, by
    (1-q^m)...(1-q^(m-k+1)) / (1-q^k).

    One of the k consecutive exponents in the numerator is divisible by k,
    so the division is exact: the array must be long enough to hold the
    numerator, and its last k entries must be zero after the running sum.
    """
    for j in range(m - k + 1, m + 1):
        coeffs[j:] -= coeffs[:-j]  # numpy reads the overlapping operand first
    if _divided(coeffs, [k])[-k:].any():
        raise InternalConsistencyError(
            f"(1-q^{m})...(1-q^{m - k + 1}) left a remainder on division by 1-q^{k}"
        )


def _shape_counts(n, statistics, axes):
    """Shape counts of n particles as an object array of ints, one array axis
    per distinct entry of ``axes`` (array axes 0, 1, ...).

    The recursion
        m P(m) = sum_k (-1)^(k+1) [prod over axes of F(m,k)] P(m-k),
        F(m,k) = (1-q^m)...(1-q^(m-k+1)) / (1-q^k),   P(0) = P(1) = 1,
    runs with the alternating sign dropped for bosons.  Each entry of
    ``axes`` names the array axis whose variable that dimension's factor is
    in: (0,) * d gives the graded counts, range(d) the counts per sector.
    """
    counts = [axes.count(a) for a in range(max(axes) + 1)]
    table = [np.ones([1] * len(counts), dtype=object)] * 2
    for m in range(2, n + 1):
        # P(m) has degree at most m(m-1)/2 per dimension; a numerator, k more.
        top = tuple(slice(c * m * (m - 1) // 2 + 1) for c in counts)
        total = np.zeros([s.stop for s in top], dtype=object)
        for k in range(1, m + 1):
            term = np.zeros([s.stop + k for s in top], dtype=object)
            term[tuple(map(slice, table[m - k].shape))] = table[m - k]
            for axis in axes:
                _apply_factor(term.swapaxes(0, axis), m, k)
            if statistics is FERMION and k % 2 == 0:
                total -= term[top]
            else:
                total += term[top]
        quotient = total // m
        if (quotient * m != total).any() or (quotient < 0).any():
            raise InternalConsistencyError(
                f"shape count recursion does not give non-negative integers at "
                f"n={m}, axes={tuple(axes)}, {statistics.value}"
            )
        table.append(quotient)
    return table[n]


def _check_system(n, d, statistics):
    if n < 0:
        raise ValueError("particle count must be non-negative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    is_fermion(statistics)


def shape_recursion_factor(n, k):
    """The exact polynomial (1-q^n)...(1-q^(n-k+1)) / (1-q^k)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    coeffs = np.zeros(k * (2 * n - k + 1) // 2 + 1, dtype=object)
    coeffs[0] = 1
    _apply_factor(coeffs, n, k)
    return GradedQPolynomial(dict(enumerate(coeffs)))


@functools.lru_cache(maxsize=None)
def shape_polynomial(n, d, statistics=FERMION):
    """Generating polynomial counting shapes of n particles in d dimensions.

    _shape_counts with every dimension in the one variable q, so that each
    step multiplies by F(m,k)^d.  The result has non-negative integer
    coefficients and P(q=1) = n!^(d-1).
    """
    _check_system(n, d, statistics)
    return GradedQPolynomial(dict(enumerate(_shape_counts(n, statistics, (0,) * d))))


def sector_shape_counts(n, d, statistics=FERMION):
    """Shapes per sector: {per-axis degree tuple: count}, zeros omitted.

    A state's sector is the tuple of its per-axis degree totals, and every
    shape lies in one.  The counts are _shape_counts with each dimension in
    its own variable q_axis, the multigraded Hilbert series of the free
    module the shapes generate.  Summing the counts of one total degree
    gives that degree's coefficient of shape_polynomial.
    """
    _check_system(n, d, statistics)
    counts = _shape_counts(n, statistics, range(d))
    return {tuple(map(int, s)): counts[tuple(s)] for s in np.argwhere(counts)}


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
    _divided(coeffs, list(range(1, n + 1)) * d)
    return GradedQPolynomial(dict(enumerate(coeffs)), truncation)


def level_dimension(n, d, grade, statistics=FERMION):
    """Number of Slater-determinant (or permanent) states of a given grade."""
    if grade < 0:
        raise ValueError("grade must be non-negative")
    return dimension_series(n, d, grade, statistics).coefficient(grade)
