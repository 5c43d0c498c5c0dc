"""Schur functions two ways, and the 1D factorization into Schur times Vandermonde.

Schur polynomials live on a single axis: they are represented as
ExactPolynomial instances with d=1, one variable per particle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import FERMION
from .errors import InternalConsistencyError
from .polycore import (
    ExactPolynomial,
    SlaterState,
    divide_exact,
    vandermonde,
)


@dataclass(frozen=True)
class Partition:
    """Non-increasing sequence of positive integers."""

    parts: tuple

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be non-increasing")

    @classmethod
    def of(cls, *parts):
        return cls(tuple(int(p) for p in parts))

    @property
    def weight(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def padded(self, length):
        return tuple(self.parts) + (0,) * (length - len(self.parts))

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def partitions(weight, max_parts=None):
    """All partitions of the given weight with at most max_parts parts."""
    if max_parts is None:
        max_parts = weight
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        if len(acc) == max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(weight, weight, [])
    return out


def schur_ssyt(partition, n_vars):
    """Schur polynomial as the generating function of semistandard tableaux.

    Fills the Young diagram row-major with entries 1..n_vars, weakly
    increasing along rows and strictly increasing down columns; each filling
    contributes one monomial z_1^{n_1} ... z_N^{n_N}.  More parts than
    variables gives the zero polynomial; fewer than one variable is a
    ValueError.
    """
    if n_vars < 1:
        raise ValueError(f"need n_vars >= 1, got {n_vars}")
    if len(partition) > n_vars:
        return ExactPolynomial.zero(n_vars, 1)
    shape = partition.parts
    if not shape:
        return ExactPolynomial.constant(n_vars, 1)
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    fill = [[0] * row_len for row_len in shape]
    counts = [0] * n_vars
    terms = {}

    def rec(pos):
        if pos == len(cells):
            key = tuple(counts)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, fill[r][c - 1])
        if r > 0:
            lo = max(lo, fill[r - 1][c] + 1)
        for v in range(lo, n_vars + 1):
            fill[r][c] = v
            counts[v - 1] += 1
            rec(pos + 1)
            counts[v - 1] -= 1
        fill[r][c] = 0

    rec(0)
    return ExactPolynomial(n_vars, 1, {m: Fraction(c) for m, c in terms.items()})


def schur_ratio(partition, n_vars):
    """Schur polynomial as generalized Vandermonde over Vandermonde.

    The numerator is the determinant with row exponents lambda_i + (N - i);
    the division is exact and the result equals schur_ssyt.
    """
    if n_vars < 1:
        raise ValueError(f"need n_vars >= 1, got {n_vars}")
    if len(partition) > n_vars:
        return ExactPolynomial.zero(n_vars, 1)
    lam = partition.padded(n_vars)
    orbitals = tuple((lam[i] + n_vars - 1 - i,) for i in range(n_vars))
    numerator = SlaterState(orbitals, FERMION).expand()
    return divide_exact(numerator, vandermonde(n_vars))


def factor_1d(state):
    """Factor a 1D Slater determinant as a Schur function times the Vandermonde.

    Returns the partition lambda with lambda_i = n_i - (N - i); the identity
    expand(state) = s_lambda * Delta is verified exactly and a failure aborts.
    """
    if state.statistics is not FERMION or state.d != 1:
        raise ValueError("factor_1d needs a one-dimensional fermion state")
    n = state.n
    lam = tuple(state.orbitals[i][0] - (n - 1 - i) for i in range(n))
    partition = Partition(tuple(p for p in lam if p > 0))
    product = schur_ssyt(partition, n) * vandermonde(n)
    if product != state.expand():
        raise InternalConsistencyError(
            f"1D factorization failed for {state}: s_{partition} * Delta "
            "does not reproduce the determinant"
        )
    return partition


def schur_expand(poly):
    """Expand a symmetric 1-axis polynomial in the Schur basis.

    Repeatedly reads off the leading monomial (whose exponents must be
    non-increasing, or the input was not symmetric) and subtracts that Schur
    polynomial.  Returns a dict Partition -> Fraction.
    """
    if poly.d != 1:
        raise ValueError("schur_expand needs a single-axis polynomial")
    n = poly.n
    out = {}
    rem = poly
    while not rem.is_zero:
        lead = rem.leading_monomial()
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(
                f"not a symmetric polynomial: leading exponents {lead} "
                "are not non-increasing"
            )
        partition = Partition(tuple(e for e in lead if e > 0))
        coeff = rem.terms[lead]
        out[partition] = coeff
        rem = rem - coeff * schur_ssyt(partition, n)
    return out
