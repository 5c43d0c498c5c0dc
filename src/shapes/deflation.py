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
from math import comb

import numpy as np

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
    def code_array(self):
        """The states as an int32 (len x n) array, one row of orbital codes each."""
        return np.array(self.states, dtype=np.int32).reshape(len(self.states), self.n)

    @cached_property
    def _key_table(self):
        """(binomials, keys ascending) for locate_codes.

        binomials[x, r] = C(x, r) for every x a key reads and r <= n, built
        by Pascal's rule in Python ints; keys are the states' keys,
        ascending, so in reverse enumeration order.  Both are int64 while
        C(codes + n, n) < 2^63, which bounds every key and every partial sum
        of one, and Python ints (object arrays) above.
        """
        n = self.n
        size = self.codes.grow(self.grade) + n
        binomials = np.zeros((size, n + 1), dtype=object)
        binomials[:, 0] = 1
        for r in range(1, n + 1):
            binomials[1:, r] = np.cumsum(binomials[:-1, r - 1])
        if comb(size, n) < 2**63:
            binomials = binomials.astype(np.int64)
        keys = self._keys(binomials, self.code_array)[::-1]
        if not (keys[1:] > keys[:-1]).all():
            raise InternalConsistencyError(
                f"grade {self.grade} states are not in enumeration order"
            )
        return binomials, keys

    def _keys(self, binomials, rows):
        """The combinadic key of each row of codes, in any order within a row.

        Sorted descending, a row's key is sum_j C(c_j + o_j, n - j), with
        o_j = n - 1 - j for bosons (whose codes may repeat) and 0 for
        fermions: its rank among all such rows (the combinatorial number
        system).  n - 1 - j is the number of codes that sort after c_j, the
        smaller ones and, among equal ones, those further right, so no sort
        is needed.
        """
        after = (rows[:, None, :] < rows[:, :, None]).sum(axis=2)
        if self.statistics is not FERMION:
            right = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
            after += ((rows[:, :, None] == rows[:, None, :]) & right).sum(axis=2)
            return binomials[rows + after, after + 1].sum(axis=1)
        return binomials[rows, after + 1].sum(axis=1)

    def locate_codes(self, rows):
        """The indices of the states whose orbital codes are the rows of an
        integer k x n array, in any order within a row.

        A state's key (_keys) rises strictly against the enumeration order,
        so one searchsorted finds every row.  A row that is not a state of
        this level is an InternalConsistencyError.
        """
        binomials, keys = self._key_table
        wanted = self._keys(binomials, rows)
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        missing = keys[found] != wanted
        if missing.any():
            row = sorted(rows[np.flatnonzero(missing)[0]].tolist(), reverse=True)
            raise InternalConsistencyError(
                f"orbitals {self.codes.decode(row)} are not a state of grade {self.grade}"
            )
        return len(keys) - 1 - found

    @cached_property
    def _sector_layout(self):
        """(sectors, sector ids, positions), from one pass over the code array.

        A state's sector is the sum over its codes of a per-code table of
        axis degrees.  Sectors are numbered in the order of their first
        states; ids[i] is state i's sector number and positions[i] its place
        among that sector's states.
        """
        axis_degrees = np.array(
            self.codes.orbitals[: self.codes.grow(self.grade)], dtype=np.int64
        ).reshape(-1, self.d)
        per_state = axis_degrees[self.code_array].sum(axis=1)
        order = np.lexsort(per_state.T[::-1])  # stable: a sector's first state leads
        new = np.ones(len(order), dtype=bool)
        new[1:] = (per_state[order[1:]] != per_state[order[:-1]]).any(axis=1)
        firsts = order[new]
        number = np.empty(len(firsts), dtype=np.int32)
        number[np.argsort(firsts)] = np.arange(len(firsts))
        ids = np.empty(len(order), dtype=np.int32)
        ids[order] = number[np.cumsum(new) - 1]
        members = np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=len(firsts))
        starts = np.cumsum(counts) - counts
        positions = np.empty_like(ids)
        positions[members] = np.arange(len(ids)) - np.repeat(starts, counts)
        index = list(self.index.values()).__getitem__  # its int objects, not copies
        sectors = {
            tuple(per_state[first].tolist()): tuple(map(index, members[lo : lo + count].tolist()))
            for first, lo, count in zip(np.sort(firsts), starts, counts)
        }
        return sectors, ids, positions

    @property
    def sectors(self):
        """{sector: tuple of state indices, ascending}.

        A state's sector is the tuple of its per-axis degree totals.  An
        Euler factor raises one axis's total by a fixed amount, so every
        shape and every shape x Euler product lies in one sector.
        """
        return self._sector_layout[0]

    @property
    def sector_ids(self):
        """Per state, the number of its sector, counted in sectors' order."""
        return self._sector_layout[1]

    @property
    def sector_positions(self):
        """Per state, its position in its sector's tuple in sectors."""
        return self._sector_layout[2]

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
