"""Expand homogeneous (anti)symmetric polynomials over the level basis.

Deflation is the entry point for polynomials from outside the state basis:
user input (``shapes deflate``) and test oracles.  Shape generation never
deflates; it forms its products in the state basis directly.

Deflation eliminates the residual by repeatedly subtracting the basis state
that carries the current leading monomial.  Because every monomial of a
state's expansion is a row permutation of its orbital matrix, distinct
states of one level have disjoint monomial supports and unique leading
monomials (asserted at construction), so each state is subtracted at most
once and the elimination runs in linear time.  A residual monomial whose
row multiset matches no state, or a support that does not reduce to zero,
means the input was outside the antisymmetric (or symmetric) span; the
error reports the residual's leading monomial.
"""

from __future__ import annotations

from fractions import Fraction

from .counting import FERMION, level_dimension
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import (
    ExactPolynomial,
    _as_exact,
    enumerate_basis,
    monomial_rows,
    monomial_sort_key,
    orbital_key,
)


class LevelBasis:
    """All Slater/permanent states of one grade, in enumeration order.

    Expansions are cached lazily.  The state count is cross-checked against
    the q-series level dimension, and leading monomials are asserted unique.
    """

    def __init__(self, n, d, grade, statistics=FERMION, max_states=None):
        self.n = n
        self.d = d
        self.grade = grade
        self.statistics = statistics
        expected = level_dimension(n, d, grade, statistics)
        if max_states is not None and expected > max_states:
            raise StateCapExceeded(grade, expected, max_states)
        self.states = enumerate_basis(n, d, grade, statistics)
        if len(self.states) != expected:
            raise InternalConsistencyError(
                f"enumerated {len(self.states)} states at grade {grade} but the "
                f"dimension series predicts {expected} (n={n}, d={d}, "
                f"{statistics.value})"
            )
        self._lead_index = {}
        self._lead_coeffs = []
        for idx, state in enumerate(self.states):
            lead = state.leading_monomial()
            if lead in self._lead_index:
                raise InternalConsistencyError(
                    f"leading monomial collision at grade {grade}: states "
                    f"{self._lead_index[lead]} and {idx}"
                )
            self._lead_index[lead] = idx
            self._lead_coeffs.append(state.leading_coefficient())
        self._expansions = [None] * len(self.states)
        self._state_index = {s.orbitals: i for i, s in enumerate(self.states)}
        # monomial -> state index, filled as states are first touched
        self._monomial_index = dict(self._lead_index)

    def __len__(self):
        return len(self.states)

    @property
    def dimension(self):
        return len(self.states)

    def expansion(self, idx):
        poly = self._expansions[idx]
        if poly is None:
            poly = self.states[idx].expand()
            self._expansions[idx] = poly
            registry = self._monomial_index
            for mono in poly.terms:
                registry[mono] = idx
        return poly

    def state_for_monomial(self, mono):
        """Index of the state whose expansion contains the monomial, or None."""
        idx = self._monomial_index.get(mono)
        if idx is not None:
            return idx
        rows = sorted(monomial_rows(mono, self.d), key=orbital_key, reverse=True)
        idx = self._lead_index.get(tuple(e for row in rows for e in row))
        if idx is not None:
            self.expansion(idx)  # registers the whole support
        return idx

    def state_index(self, state):
        return self._state_index[state.orbitals]

    def materialize(self, coeffs):
        """Polynomial sum of coeffs[i] * expansion(state_i).

        Accepts a dense sequence or a sparse {index: coeff} dict.
        """
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        poly = ExactPolynomial.zero(self.n, self.d)
        for idx, c in items:
            if c:
                poly = poly + _as_exact(c) * self.expansion(idx)
        return poly


def deflate(poly, basis):
    """Coefficient vector of a homogeneous polynomial over the level basis.

    Exact: sum_i c_i * expansion(state_i) reproduces the input, and the
    result is deterministic.  A residual that no basis state can eliminate
    raises with the offending leading monomial.
    """
    sparse = deflate_sparse(poly, basis)
    out = [Fraction(0)] * len(basis)
    for idx, c in sparse.items():
        out[idx] = Fraction(c)
    return out


def deflate_sparse(poly, basis):
    """Like deflate but returns only the nonzero entries as a dict."""
    if poly.n != basis.n or poly.d != basis.d:
        raise ValueError("polynomial and basis have different variable sets")
    if poly.is_zero:
        return {}
    if not poly.is_homogeneous() or poly.grade() != basis.grade:
        raise ValueError(f"polynomial is not homogeneous of grade {basis.grade}")
    residual = dict(poly.terms)
    result = {}
    while residual:
        mono = next(iter(residual))
        idx = basis.state_for_monomial(mono)
        if idx is None:
            _raise_outside_span(residual, basis)
        lead_mono = basis.states[idx].leading_monomial()
        c = Fraction(residual.get(lead_mono, 0)) / basis._lead_coeffs[idx]
        if c.denominator == 1:
            c = c.numerator
        leftover = False
        for m, ec in basis.expansion(idx).terms.items():
            nv = residual.pop(m, 0) - c * ec
            if nv:
                residual[m] = nv
                leftover = True
        if leftover:
            _raise_outside_span(residual, basis)
        if c:
            result[idx] = c
    return result


def _raise_outside_span(residual, basis):
    lead = max(residual, key=lambda m: monomial_sort_key(m, basis.d))
    raise InternalConsistencyError(
        f"polynomial is outside the {basis.statistics.value} span at grade "
        f"{basis.grade}; residual leading monomial "
        f"{monomial_rows(lead, basis.d)}"
    )

