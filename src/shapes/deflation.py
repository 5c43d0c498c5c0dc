"""Expand homogeneous (anti)symmetric polynomials over the level basis.

Deflation is the entry point for polynomials from outside the state basis:
user input (``shapes deflate``) and test oracles.  Shape generation never
deflates; it forms its products in the state basis directly.

Every monomial of a state's expansion is a row permutation of its orbital
matrix, so distinct states of one level have disjoint monomial supports,
and a state's leading monomial is its orbitals in canonical order.
Deflation therefore reads each state's coefficient off the input's
monomials whose rows are already canonical, found in one batched lookup
(LevelBasis.find_orbitals), and checks that the input
equals the materialized result.  A nonzero difference means the input was
outside the antisymmetric (or symmetric) span; the error reports the
difference's leading monomial.

LevelBasis, the level of one grade, holds its states' code rows and
combinadic keys, and nothing per realization: the densities (realize) and
Coulomb tables (coulomb) read its code array and keep what they compute to
themselves, so this module imports neither of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import comb

import numpy as np

from .counting import FERMION, level_dimension
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import (
    ExactPolynomial,
    SlaterState,
    as_exact,
    chunk_rows,
    enumerate_basis,
    monomial_rows,
    multiplicity_factorials,
    orbital_codes,
)


@cache
def _row_pairs(n):
    """The row pairs a < b of n rows, as two index arrays."""
    return np.triu_indices(n, 1)


class LevelBasis:
    """All Slater/permanent states of one grade, in enumeration order.

    A state is the descending row of its orbitals' codes, and code_array,
    an int32 (states x n) array, holds state i in row i (enumerate_basis).
    No other per-state object is kept: a state is found by its combinadic
    key (row_keys), which rises strictly against the enumeration order, so the
    level keeps its keys ascending and one searchsorted finds any batch of
    code rows (find_codes, locate_signed).  ``codes`` is the numbering of
    the level's dimension (orbital_codes); ``orbitals`` decodes a state to
    its canonical orbitals, also the rows of its leading monomial, and
    ``locate`` and ``find_orbitals`` find the states of canonical orbitals
    or monomial rows.  The state count is cross-checked against the
    q-series level dimension, and the keys are checked strictly ascending
    from 0, so the states are distinct and in enumeration order.
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
        self.code_array = enumerate_basis(n, d, grade, statistics)
        if len(self.code_array) != expected:
            raise InternalConsistencyError(
                f"enumerated {len(self.code_array)} states at grade {grade} but the "
                f"dimension series predicts {expected} (n={n}, d={d}, {statistics.value})"
            )
        self._binomials = self._binomial_table()
        size = len(self.code_array)
        keys = self._sorted_keys = np.empty(size, dtype=self._binomials.dtype)
        step = chunk_rows(24 * n)  # row_keys holds about 24 bytes per code
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            keys[size - hi : size - lo] = self.row_keys(self.code_array[lo:hi])[::-1]
        if not ((keys[1:] > keys[:-1]).all() and (keys[:1] >= 0).all()):
            raise InternalConsistencyError(
                f"grade {grade} states are not distinct and in enumeration order "
                f"(n={n}, d={d}, {statistics.value})"
            )

    def __len__(self):
        return len(self.code_array)

    def orbitals(self, idx):
        """State idx's orbitals, in canonical order."""
        return self.codes.decode(self.code_array[idx].tolist())

    def locate(self, orbitals):
        """The index of the state with these orbitals (tuples, in canonical
        order), or None if they are not one."""
        (found,) = self.find_orbitals([orbitals]).tolist()
        return None if found < 0 else found

    def find_orbitals(self, rows):
        """Per row of orbitals (sequences of d ints), the index of the state
        with those orbitals in canonical order, or -1 where the row is not
        one: not n orbitals of d dimensions and degree <= grade, not in
        canonical order (descending, strictly for fermions) or not of this
        grade.  The rows are coded in one pass over their orbitals."""
        array = self.codes.code_rows(rows, self.n, self.grade)
        steps = array[:, :-1] - array[:, 1:]
        canonical = (steps > 0 if self.statistics is FERMION else steps >= 0).all(axis=1)
        canonical &= (array < self.codes.grow(self.grade)).all(axis=1)
        found = self.find_codes(np.where(canonical[:, None], array, 0))
        return np.where(canonical, found, -1)

    def state_sectors(self, idx):
        """The sectors of the states idx (an index array or a slice), one
        row of per-axis degree totals each."""
        return self.codes.axis_degrees(self.grade)[self.code_array[idx]].sum(axis=1)

    def expansion(self, idx):
        return SlaterState(self.orbitals(idx), self.statistics).expand()

    def _binomial_table(self):
        """binomials[x, r] = C(x, r) for every x a key reads and r <= n.

        Built by Pascal's rule in Python ints; int64 while C(codes + n, n)
        < 2^63, which bounds every key and every partial sum of one, and
        Python ints (an object array) above.
        """
        n = self.n
        size = self.codes.grow(self.grade) + n
        binomials = np.zeros((size, n + 1), dtype=object)
        binomials[:, 0] = 1
        for r in range(1, n + 1):
            binomials[1:, r] = np.cumsum(binomials[:-1, r - 1])
        return binomials.astype(np.int64) if comb(size, n) < 2**63 else binomials

    def row_keys(self, rows):
        """The combinadic key of each row of r <= n codes, in any order
        within a row.

        With the row sorted descending, its key is sum_j C(c_j + o_j, r - j),
        with o_j = r - 1 - j for bosons (whose codes may repeat) and 0 for
        fermions: its rank among all such rows (the combinatorial number
        system).  A fermion row with a repeated code is no state; its key is
        -1, which no state has.
        """
        n = rows.shape[1]
        rows = np.sort(rows, axis=1)[:, ::-1]
        if self.statistics is not FERMION:
            return self._binomials[rows + np.arange(n - 1, -1, -1), np.arange(n, 0, -1)].sum(axis=1)
        keys = self._binomials[rows, np.arange(n, 0, -1)].sum(axis=1)
        repeated = rows[:, 1:] == rows[:, :-1]
        if repeated.any():
            keys[repeated.any(axis=1)] = -1
        return keys

    def find_codes(self, rows):
        """The index of the state whose orbital codes are each row of an
        integer k x n array of codes below codes.grow(grade), in any order
        within a row, or -1 where a row is no state of this level."""
        keys = self._sorted_keys
        if not len(keys):
            return np.full(len(rows), -1)
        wanted = self.row_keys(rows)
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[found] == wanted, len(keys) - 1 - found, -1)

    def locate_signed(self, rows):
        """(indices, phases) of a (..., n) integer array of code rows below
        codes.grow(grade), in any order within a row.

        The phase is that of sorting a row into its state's order, as
        canonical_rows gives it: for a determinant, the product over row
        pairs a < b of sign(code a - code b), -1 per pair the sort exchanges
        and 0, with index -1, when two codes coincide; for a permanent, 1.
        A row of nonzero phase that is not a state of this level is an
        InternalConsistencyError.
        """
        shape, rows = rows.shape[:-1], rows.reshape(-1, self.n)
        if self.statistics is FERMION:
            first, second = _row_pairs(self.n)
            phases = np.sign(rows[:, first] - rows[:, second]).prod(axis=1)
        else:
            phases = np.ones(len(rows), dtype=np.int64)
        indices = np.full(len(rows), -1)
        live = phases != 0
        indices[live] = self.find_codes(rows[live])
        missing = np.flatnonzero(live & (indices < 0))
        if len(missing):
            row = sorted(rows[missing[0]].tolist(), reverse=True)
            raise InternalConsistencyError(
                f"orbitals {self.codes.decode(row)} are not a state of grade {self.grade}"
            )
        return indices.reshape(shape), phases.reshape(shape)

    @cached_property
    def sectors(self):
        """{sector: ascending int32 array of its state indices}, keyed in
        the order of the sectors' first states.

        A state's sector is the tuple of its per-axis degree totals, the sum
        over its codes of a per-code table of axis degrees.  An Euler factor
        raises one axis's total by a fixed amount, so every shape and every
        shape x Euler product lies in one sector.  The arrays are slices of
        one stable sort of the states by sector.
        """
        per_state = self.state_sectors(slice(None))
        order = np.lexsort(per_state.T[::-1]).astype(np.int32)
        new = np.ones(len(order), dtype=bool)
        new[1:] = (per_state[order[1:]] != per_state[order[:-1]]).any(axis=1)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(order))
        by_first = np.argsort(order[starts])  # a slice's first entry is its first state
        return {
            tuple(per_state[order[lo]].tolist()): order[lo:hi]
            for lo, hi in zip(starts[by_first].tolist(), ends[by_first].tolist())
        }

    def materialize(self, coeffs):
        """Polynomial sum of coeffs[i] * expansion(state_i).

        coeffs is a sparse {state index: coeff} dict.  State supports are
        disjoint, so every term is written once, by ascending state index.
        """
        terms = {}
        for idx, c in sorted(coeffs.items()):
            if c:
                c = as_exact(c)
                for mono, ec in self.expansion(idx).terms.items():
                    terms[mono] = c * ec
        return ExactPolynomial._raw(self.n, self.d, terms)


# A sparse {state index: coeff} vector over one LevelBasis.
StateVector = namedtuple("StateVector", ["basis", "terms"])


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
    rows = [monomial_rows(mono, basis.d) for mono in poly.terms]
    result = {}
    for orbitals, c, idx in zip(rows, poly.terms.values(), basis.find_orbitals(rows).tolist()):
        if idx >= 0:
            result[idx] = as_exact(Fraction(c) / multiplicity_factorials(orbitals))
    residual = poly - basis.materialize(result)
    if not residual.is_zero:
        raise InternalConsistencyError(
            f"polynomial is outside the {basis.statistics.value} span at grade "
            f"{basis.grade}; residual leading monomial "
            f"{monomial_rows(residual.leading_monomial(), basis.d)}"
        )
    return result
