"""Expand homogeneous (anti)symmetric polynomials over the level basis.

Deflation is the entry point for polynomials from outside the state basis:
user input (``shapes deflate``) and test oracles.  Shape generation never
deflates; it forms its products in the state basis directly.

Every monomial of a state's expansion is a row permutation of its orbital
matrix, so distinct states of one level have disjoint monomial supports,
and a state's leading monomial is its orbitals in canonical order.
Deflation therefore reads each state's coefficient off the input's
monomials whose rows are already canonical, and checks that the input
equals the materialized result.  A nonzero difference means the input was
outside the antisymmetric (or symmetric) span; the error reports the
difference's leading monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .counting import FERMION, level_dimension
from .coulomb import CoulombOperator
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import (
    ExactPolynomial,
    SlaterState,
    _as_exact,
    enumerate_basis,
    monomial_rows,
    multiplicity_factorials,
    orbital_codes,
    sector_of,
)


class LevelBasis:
    """All Slater/permanent states of one grade, in enumeration order.

    A state is the descending tuple of its orbitals' codes
    (enumerate_basis), and ``index`` maps it to its position.  ``codes`` is
    the numbering of the level's dimension (orbital_codes); ``orbitals``
    decodes a state to its canonical orbitals, also the rows of its leading
    monomial, and ``locate`` is the one lookup from orbitals or monomial
    rows to states.  The state count is cross-checked against the q-series
    level dimension, and the states are asserted distinct.  The Coulomb
    operator is built lazily.
    """

    def __init__(self, n, d, grade, statistics=FERMION, max_states=None):
        self.n = n
        self.d = d
        self.grade = grade
        self.statistics = statistics
        expected = level_dimension(n, d, grade, statistics)
        if max_states is not None and expected > max_states:
            raise StateCapExceeded(grade, expected, max_states)
        self.codes = orbital_codes(d)
        self.states = enumerate_basis(n, d, grade, statistics)
        self.index = {s: i for i, s in enumerate(self.states)}
        if not len(self.states) == len(self.index) == expected:
            raise InternalConsistencyError(
                f"enumerated {len(self.states)} states ({len(self.index)} "
                f"distinct) at grade {grade} but the dimension series predicts "
                f"{expected} (n={n}, d={d}, {statistics.value})"
            )

    def __len__(self):
        return len(self.states)

    def orbitals(self, idx):
        """State idx's orbitals, in canonical order."""
        return self.codes.decode(self.states[idx])

    def locate(self, orbitals):
        """The index of the state with these orbitals (tuples, in canonical
        order), or None if they are not one."""
        code = self.codes.index.get
        return self.index.get(tuple(code(o) for o in orbitals))

    def expansion(self, idx):
        return SlaterState(self.orbitals(idx), self.statistics).expand()

    @cached_property
    def coulomb_operator(self):
        return CoulombOperator(self)

    @cached_property
    def sectors(self):
        """{sector: tuple of state indices, ascending}.

        A state's sector is the tuple of its per-axis degree totals.  An
        Euler factor raises one axis's total by a fixed amount, so every
        shape and every shape x Euler product lies in one sector.
        """
        orbitals = self.codes.orbitals
        out = {}
        for state, i in self.index.items():  # the index's int objects, not copies
            out.setdefault(sector_of([orbitals[c] for c in state]), []).append(i)
        return {sector: tuple(indices) for sector, indices in out.items()}

    def materialize(self, coeffs):
        """Polynomial sum of coeffs[i] * expansion(state_i).

        coeffs is a sparse {state index: coeff} dict.  State supports are
        disjoint, so every term is written once, by ascending state index
        (float sums over the terms do not depend on the dict's order).
        """
        terms = {}
        for idx, c in sorted(coeffs.items()):
            if c:
                c = _as_exact(c)
                for mono, ec in self.expansion(idx).terms.items():
                    terms[mono] = c * ec
        return ExactPolynomial._raw(self.n, self.d, terms)


def deflate_sparse(poly, basis):
    """Sparse {state index: coeff} of a homogeneous polynomial over the level basis.

    Exact: sum_i c_i * expansion(state_i) reproduces the input, only the
    nonzero coefficients are kept, and the result is deterministic.  An
    input outside the span raises with the leading monomial of the residual.
    """
    if poly.n != basis.n or poly.d != basis.d:
        raise ValueError("polynomial and basis have different variable sets")
    if poly.is_zero:
        return {}
    if not poly.is_homogeneous() or poly.grade() != basis.grade:
        raise ValueError(f"polynomial is not homogeneous of grade {basis.grade}")
    result = {}
    for mono, c in poly.terms.items():
        idx = basis.locate(monomial_rows(mono, basis.d))
        if idx is not None:
            result[idx] = _as_exact(Fraction(c) / multiplicity_factorials(basis.states[idx]))
    residual = poly - basis.materialize(result)
    if not residual.is_zero:
        raise InternalConsistencyError(
            f"polynomial is outside the {basis.statistics.value} span at grade "
            f"{basis.grade}; residual leading monomial "
            f"{monomial_rows(residual.leading_monomial(), basis.d)}"
        )
    return result
