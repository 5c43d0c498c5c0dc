"""Tests for Hermite linearization, Beta integrals, and Coulomb elements."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from coulomb_oracle import hermite_coefficients, poly_mul, two_body_oracle
import rotation_oracle
from shapes.counting import BOSON, FERMION, shape_polynomial
from shapes import coulomb
from shapes.coulomb import (
    _contract,
    _level_weights,
    _scaled_elements,
    beta_integral_exact,
    coulomb_expectation,
    coulomb_table,
    hermite_linearization,
    hermite_norm_rational,
    removals,
    two_body_element,
)
from shapes.deflation import LevelBasis
from shapes.errors import InternalConsistencyError
from shapes.polycore import SlaterState, canonical_rows


class TestHermiteLinearization:
    def test_one_one(self):
        # H_1^2 = 4x^2 = H_2 + 2 H_0
        assert hermite_linearization(1, 1) == [2, 0, 1]

    def test_multiplication_by_one(self):
        for n in range(5):
            coeffs = hermite_linearization(n, 0)
            assert coeffs[n] == 1
            assert all(c == 0 for k, c in enumerate(coeffs) if k != n)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("m", range(7))
    def test_against_polynomial_multiplication(self, n, m):
        # Reassemble sum_k a_k H_k and compare with H_n * H_m coefficientwise.
        a = hermite_linearization(n, m)
        product = poly_mul(hermite_coefficients(n), hermite_coefficients(m))
        rebuilt = [0] * (n + m + 1)
        for k, ak in enumerate(a):
            if ak:
                for i, c in enumerate(hermite_coefficients(k)):
                    rebuilt[i] += ak * c
        assert rebuilt == product

    def test_parity_zeros(self):
        a = hermite_linearization(2, 1)
        assert a[0] == 0 and a[2] == 0


class TestBetaIntegral:
    @pytest.mark.parametrize("l", range(0, 14, 2))
    def test_three_dimensional_closed_form(self, l):
        assert beta_integral_exact(3, l) == (Fraction(1, l + 1), 0)

    @pytest.mark.parametrize("l", range(0, 14, 2))
    def test_two_dimensional_closed_form(self, l):
        rat, pi_pow = beta_integral_exact(2, l)
        assert pi_pow == 1
        assert rat == Fraction(math.comb(l, l // 2), 2 ** (l + 1))

    def test_paper_values(self):
        assert beta_integral_exact(3, 2) == (Fraction(1, 3), 0)
        assert beta_integral_exact(2, 0) == (Fraction(1, 2), 1)  # pi / 2
        assert beta_integral_exact(2, 2) == (Fraction(1, 4), 1)  # pi / 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("l", [0, 2, 4, 6])
    def test_against_numerical_quadrature(self, d, l):
        value, _ = quad(lambda w: (1 - w * w) ** ((d - 3) / 2) * w**l, 0, 1)
        rat, pi_pow = beta_integral_exact(d, l)
        assert float(rat) * math.pi**pi_pow == pytest.approx(value, rel=1e-9)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            beta_integral_exact(1, 0)

    def test_odd_l_rejected(self):
        with pytest.raises(ValueError):
            beta_integral_exact(3, 1)


def even_parity_tuples(d, max_entry, stride=1):
    vals = range(max_entry + 1)
    per_axis = [t for t in itertools.product(vals, repeat=4) if sum(t) % 2 == 0]
    combos = itertools.islice(itertools.product(per_axis, repeat=d), None, None, stride)
    for combo in combos:
        yield tuple(tuple(c[i] for c in combo) for i in range(4))


class TestTwoBodyElement:
    def test_all_zero_indices_d3(self):
        # pi^3 sqrt(2/pi) I_3(0), all linearization factors 1
        expected = math.sqrt(2.0) * math.pi**2.5
        assert two_body_element((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)) == (
            pytest.approx(expected, rel=1e-14)
        )

    def test_odd_parity_vanishes_exactly(self):
        zero3 = (0, 0, 0)
        assert two_body_element((1, 0, 0), zero3, zero3, zero3) == 0.0
        assert two_body_element((1, 0), (0, 1), (0, 0), (0, 0)) == 0.0

    def test_particle_relabel_symmetry(self):
        a, b, c, d = (2, 1), (0, 1), (1, 0), (1, 2)
        assert two_body_element(a, b, c, d) == two_body_element(b, a, d, c)

    def test_real_integrand_symmetry(self):
        a, b, c, d = (2, 1), (0, 1), (1, 0), (1, 2)
        assert two_body_element(a, b, c, d) == two_body_element(c, d, a, b)

    def test_positive_diagonal(self):
        for idx in [(0, 0), (1, 1), (2, 0)]:
            assert two_body_element(idx, idx, idx, idx) > 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_quadrature_agreement_entries_up_to_one(self, d):
        for bra1, bra2, ket1, ket2 in even_parity_tuples(d, 1):
            oracle = two_body_oracle(bra1, bra2, ket1, ket2)
            closed = two_body_element(bra1, bra2, ket1, ket2)
            if oracle:
                assert abs(closed - oracle) / abs(oracle) < 1e-6
            else:
                assert closed == pytest.approx(0.0, abs=1e-10)

    def test_quadrature_agreement_entries_up_to_two_sampled(self):
        # Full sweeps run in the acceptance suite; a strided sample here.
        for d, stride in [(2, 7), (3, 293)]:
            for bra1, bra2, ket1, ket2 in even_parity_tuples(d, 2, stride):
                oracle = two_body_oracle(bra1, bra2, ket1, ket2)
                closed = two_body_element(bra1, bra2, ket1, ket2)
                if oracle:
                    assert abs(closed - oracle) / abs(oracle) < 1e-6

    @pytest.mark.parametrize("d, stride", [(2, 7), (3, 293)])
    def test_stacked_quadruples_equal_one_call_each(self, d, stride):
        # The stack is evaluated over the weights of its largest degree
        # sum, and each element is still the same float.
        quads = [*even_parity_tuples(d, 2, stride)]
        stacked = two_body_element(*np.array(quads).transpose(1, 0, 2))
        assert stacked.tolist() == [two_body_element(*quad) for quad in quads]

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            two_body_element((0, 0), (0, 0, 0), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            two_body_element((-1, 0), (0, 0), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            two_body_element(*np.zeros((3, 2, 2), dtype=int), np.zeros((1, 2), dtype=int))


def reference_axis_table(n, np_, m, mp):
    """{s: factor} of one axis in Fractions, s = k + k': the linearization
    coefficients of both particles, (-1)^k, H_s(0) and 2^(-s/2)."""
    table = {}
    for k, ak in enumerate(hermite_linearization(n, m)):
        for kp, akp in enumerate(hermite_linearization(np_, mp)):
            s = k + kp
            if ak and akp and s % 2 == 0:
                h_at_zero = hermite_coefficients(s)[0]
                factor = Fraction(ak * akp * (-1) ** k * h_at_zero, 2 ** (s // 2))
                table[s] = table.get(s, 0) + factor
    return table


@lru_cache(maxsize=None)
def fraction_two_body(bra1, bra2, ket1, ket2, d):
    """Rational part R of the two-body element, in Fractions.

    The element is R * sqrt(2) * pi^(d - 1/2 + p).  The per-axis Fraction
    tables are convolved over the axes and each total degree l is weighted
    by beta_integral_exact(d, l); zero when any axis has odd parity.
    """
    acc = {0: Fraction(1)}
    for i in range(d):
        if (bra1[i] + bra2[i] + ket1[i] + ket2[i]) % 2:
            return Fraction(0)
        new = {}
        for l, c in acc.items():
            for s, f in reference_axis_table(bra1[i], bra2[i], ket1[i], ket2[i]).items():
                new[l + s] = new.get(l + s, 0) + c * f
        acc = new
    return sum((c * beta_integral_exact(d, l)[0] for l, c in acc.items()), Fraction(0))


@st.composite
def quadruple_batches(draw):
    """(d, 1 to 6 quadruples of orbitals, a grade at or above half the
    degree sum of each)."""
    d = draw(st.sampled_from([2, 3, 4]))
    orbital = st.tuples(*[st.integers(0, 4)] * d)
    quads = draw(st.lists(st.tuples(*[orbital] * 4), min_size=1, max_size=6))
    grade = max(sum(map(sum, quad)) for quad in quads) // 2 + draw(st.integers(0, 2))
    return d, quads, grade


@lru_cache(maxsize=None)
def level(n, d, grade, stat):
    return LevelBasis(n, d, grade, stat)


@st.composite
def state_pairs(draw):
    n, d, stat = draw(
        st.sampled_from([(n, d, s) for n in (2, 3) for d in (2, 3, 4) for s in (FERMION, BOSON)])
    )
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 2))
    basis = level(n, d, grade, stat)
    index = st.integers(0, len(basis) - 1)
    return basis, draw(index), draw(index)


class TestIntegerKernel:
    """D times the Fraction formula equals the integer kernel exactly."""

    @settings(max_examples=200, deadline=None)
    @given(quadruple_batches())
    def test_the_batch_matches_the_fraction_formula(self, case):
        # Each element of one batch, in int64 where its bound allows and
        # forced onto Python ints, is D times the Fraction formula.
        d, quads, grade = case
        denominator, _ = _level_weights(d, grade)
        expected = [denominator * fraction_two_body(*quad, d) for quad in quads]
        indices = np.array(quads).transpose(1, 0, 2)
        batch = _scaled_elements(indices, grade)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coulomb, "_INT64_BOUND", 0)
            forced = _scaled_elements(indices, grade)
        assert batch.tolist() == expected
        assert forced.dtype == object and forced.tolist() == expected

    @settings(max_examples=80, deadline=None)
    @given(state_pairs())
    def test_operator_element_matches_the_monomial_contraction(self, case):
        # D <S_a|V|S_b> is the one cross cell of the states a and b, and
        # D <S_a|V|S_a> the one diagonal cell of a.
        basis, a, b = case
        denominator, _ = _level_weights(basis.d, basis.grade)
        for vectors, cell, cross in (([{a: 1}, {b: 1}], (0, 1), True), ([{a: 1}], (0, 0), False)):
            element = _contract(basis, vectors, cross)[0].get(cell, 0)
            exact = monomial_numerator(vectors[0], vectors[-1], basis)
            assert element == denominator * exact
            assert type(element) is int

    def test_weights_are_integers_over_one_denominator(self):
        for d in (2, 3, 4, 5):
            values = [beta_integral_exact(d, l)[0] / 2 ** (l // 2) for l in range(0, 13, 2)]
            denominator, weights = _level_weights(d, 6)
            assert [Fraction(w, denominator) for w in weights] == values
            assert denominator == math.lcm(*(v.denominator for v in values))

    def test_term_beyond_the_level_bound_is_named(self):
        # An odd axis makes an element vanish, whatever its degree.
        vanishing = np.array([[[3, 0]], [[2, 0]], [[2, 0]], [[2, 0]]])
        assert _scaled_elements(vanishing, 3).tolist() == [0]
        quad = np.array([[[2, 0]]] * 4)
        with pytest.raises(InternalConsistencyError, match="degree 8 exceeds the level bound 6"):
            _scaled_elements(quad, 3)


class TestRemovals:
    """The one split of a state into removed rows and rest."""

    @given(st.data())
    def test_the_phase_is_that_of_moving_the_picked_rows_to_the_front(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        r = data.draw(st.integers(1, n - 1), label="r")
        fermion = data.draw(st.booleans(), label="fermion")
        codes = (st.sets if fermion else st.lists)(st.integers(0, 30), min_size=n, max_size=n)
        row = sorted(data.draw(codes, label="codes"), reverse=True)
        picked, kept, phases = removals(n, r, fermion)
        assert [*map(tuple, picked.tolist())] == [*itertools.combinations(range(n), r)]
        for chosen, rest, phase in zip(picked.tolist(), kept.tolist(), phases.tolist()):
            assert rest == [k for k in range(n) if k not in chosen]
            assert canonical_rows([row[k] for k in chosen + rest], fermion) == (row, phase)


class TestManyBody:
    def test_two_particle_state_by_hand(self):
        # Psi = |(1,0),(0,0)|: expectation assembled directly from the
        # two-body elements and the explicit norms 2^n n! sqrt(pi).
        basis = LevelBasis(2, 2, 1, FERMION)
        orbitals = SlaterState.from_orbitals([(1, 0), (0, 0)], FERMION).orbitals
        idx = basis.locate(orbitals)
        vee = coulomb_expectation({idx: 1}, {idx: 1}, basis)
        a, b = (1, 0), (0, 0)
        norm_a = float(hermite_norm_rational(a)) * math.pi
        norm_b = float(hermite_norm_rational(b)) * math.pi
        direct = two_body_element(a, b, a, b) - two_body_element(a, b, b, a)
        assert vee == pytest.approx(direct / (norm_a * norm_b), rel=1e-12)

    def test_two_boson_states_by_hand(self):
        # Permanents sum all orderings with coefficient 1, so the doubly
        # occupied state is 2 phi_a phi_a and the norms cancel the same way.
        basis = LevelBasis(2, 2, 1, BOSON)
        a, b = (1, 0), (0, 0)
        norm_a = float(hermite_norm_rational(a)) * math.pi
        norm_b = float(hermite_norm_rational(b)) * math.pi
        orbitals = SlaterState.from_orbitals([a, b], BOSON).orbitals
        idx = basis.locate(orbitals)
        direct = two_body_element(a, b, a, b) + two_body_element(a, b, b, a)
        assert coulomb_expectation({idx: 1}, {idx: 1}, basis) == pytest.approx(
            direct / (norm_a * norm_b), rel=1e-12
        )
        basis = LevelBasis(2, 2, 2, BOSON)
        orbitals = SlaterState.from_orbitals([a, a], BOSON).orbitals
        idx = basis.locate(orbitals)
        assert coulomb_expectation({idx: 1}, {idx: 1}, basis) == pytest.approx(
            two_body_element(a, a, a, a) / norm_a**2, rel=1e-12
        )

    @pytest.mark.parametrize(
        "n, grade, stat",
        [(3, 3, FERMION), (3, 3, BOSON), (4, 4, FERMION)],
        ids=["n3-fermion", "n3-boson", "n4-fermion"],
    )
    def test_every_pair_contributes_the_same(self, n, grade, stat):
        # The reference sums all n(n-1)/2 pairs; n = 4 tells that factor
        # apart from n.
        basis = LevelBasis(n, 2, grade, stat)
        last = len(basis) - 1
        vectors = [
            {0: 1},
            {0: 1, 1: -3},
            {1: 2, last: Fraction(1, 3)},
            {i: i + 1 for i in range(len(basis))},
        ]
        for bra in vectors:
            for ket in vectors:
                expected = all_pairs_reference(bra, ket, basis)
                got = coulomb_expectation(bra, ket, basis)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_positive_for_any_nonzero_state(self):
        basis = LevelBasis(3, 2, 3, FERMION)
        for idx in range(len(basis)):
            assert coulomb_expectation({idx: 1}, {idx: 1}, basis) > 0

    def test_symmetric_in_bra_and_ket(self):
        basis = LevelBasis(3, 2, 3, FERMION)
        v_ab = coulomb_expectation({0: 1}, {1: 2, 2: 1}, basis)
        v_ba = coulomb_expectation({1: 2, 2: 1}, {0: 1}, basis)
        assert v_ab == pytest.approx(v_ba, rel=1e-12)

    def test_normalization_convention_free(self):
        basis = LevelBasis(3, 2, 3, FERMION)
        v1 = coulomb_expectation({0: 1, 3: 2}, {0: 1, 3: 2}, basis)
        v2 = coulomb_expectation(
            {0: Fraction(1, 7), 3: Fraction(2, 7)},
            {0: Fraction(1, 7), 3: Fraction(2, 7)},
            basis,
        )
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_no_vectors_make_an_empty_table(self):
        basis = LevelBasis(3, 2, 3, FERMION)
        assert coulomb_table([], basis) == {} == coulomb_table([], basis, pairwise=True)

    def test_zero_state_rejected(self):
        basis = LevelBasis(3, 2, 3, FERMION)
        with pytest.raises(ValueError):
            coulomb_expectation({}, {0: 1}, basis)

    def test_one_particle_has_no_interaction(self):
        basis = LevelBasis(1, 2, 2, FERMION)
        assert coulomb_expectation({0: 1}, {1: 3, 2: 1}, basis) == 0.0
        with pytest.raises(ValueError):
            coulomb_expectation({0: 0}, {0: 1}, basis)

    def test_the_level_keeps_no_table_state(self, monkeypatch):
        # A diagonal table after a pairwise one on the same level is the
        # pairwise table's diagonal, and both equal the tables of a freshly
        # built level: nothing a table computes is kept on the level.  No
        # table expands a state.
        def never(*args):
            raise AssertionError(f"expanded {args}")

        monkeypatch.setattr(SlaterState, "expand", never)
        basis = LevelBasis(3, 2, 4, BOSON)
        vectors = [{0: 1, 2: 1}, {0: 2, 3: 1}, {2: -1}]
        pairwise = coulomb_table(vectors, basis, pairwise=True)
        diagonal = coulomb_table(vectors, basis)
        assert diagonal == {(i, i): pairwise[i, i] for i in range(len(vectors))}
        assert pairwise == coulomb_table(vectors, LevelBasis(3, 2, 4, BOSON), pairwise=True)
        assert diagonal == coulomb_table(vectors, LevelBasis(3, 2, 4, BOSON))


def pair_buckets(terms, d):
    """{spectator exponents: [((row 0, row 1), coeff), ...]} of particles 2..n-1."""
    buckets = {}
    for mono, coeff in terms:
        buckets.setdefault(mono[2 * d :], []).append(((mono[:d], mono[d : 2 * d]), coeff))
    return buckets


def monomial_norm(terms):
    """<Psi|Psi> over sqrt(pi)^(n*d), exactly."""
    return sum(Fraction(coeff * coeff * hermite_norm_rational(mono)) for mono, coeff in terms)


def monomial_numerator(bra, ket, basis):
    """sum_{a,b} bra_a ket_b <S_a|V|S_b>, exactly, over the n! monomials of
    every state, in units of sqrt(2) pi^(d - 1/2 + p) sqrt(pi)^((n-2) d).

    Particles 0 and 1 go through the two-body element, the spectators
    through Hermite orthogonality bucket by bucket, and every pair
    contributes the same, n(n-1)/2 times.
    """
    n, d = basis.n, basis.d
    bra_terms = list(basis.materialize(bra).terms.items())
    ket_terms = list(basis.materialize(ket).terms.items())
    numerator = Fraction(0)
    ket_buckets = pair_buckets(ket_terms, d)
    for key, bra_list in pair_buckets(bra_terms, d).items():
        spect = hermite_norm_rational(key)
        for (bi, bj), cb in bra_list:
            for (ki, kj), ck in ket_buckets.get(key, ()):
                numerator += spect * cb * ck * fraction_two_body(bi, bj, ki, kj, d)
    return numerator * (n * (n - 1) // 2)


def monomial_reference(bra, ket, basis):
    """coulomb_expectation contracted over the n! monomials of every state:
    the numerator and the norms are exact and rounded once, in the same
    order as coulomb_expectation."""
    numerator = monomial_numerator(bra, ket, basis)
    norms = monomial_norm(basis.materialize(bra).terms.items()) * monomial_norm(
        basis.materialize(ket).terms.items()
    )
    _, pi_pow = beta_integral_exact(basis.d, 0)
    prefactor = math.sqrt(2.0) * math.pi ** (pi_pow - 0.5)
    return prefactor * float(numerator) / math.sqrt(float(norms))


coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=5)
).filter(bool)


@st.composite
def state_vectors(draw, size):
    """A sparse {index: coeff} dict, never all zero: a few entries, or one
    entry per state with zeros among them."""
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
        return {i: draw(coefficients) for i in support}
    dense = draw(st.lists(st.one_of(st.just(0), coefficients), min_size=size, max_size=size))
    assume(any(dense))
    return dict(enumerate(dense))


@st.composite
def bra_ket_cases(draw):
    n, d, stat = draw(
        st.sampled_from([(n, d, s) for n in (2, 3, 4) for d in (2, 3) for s in (FERMION, BOSON)])
    )
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 2))
    basis = LevelBasis(n, d, grade, stat)
    bra = draw(state_vectors(len(basis)))
    ket = draw(state_vectors(len(basis)))
    assume(bra != ket)
    return basis, bra, ket


@st.composite
def table_cases(draw):
    """(basis, vectors): one to three vectors over a level, either all
    within one sector each (the diagonal then takes blocks per sector) or
    as state_vectors draws them."""
    n, d, stat = draw(
        st.sampled_from([(n, d, s) for n in (2, 3, 4) for d in (2, 3) for s in (FERMION, BOSON)])
    )
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 2))
    basis = level(n, d, grade, stat)
    count = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        return basis, [draw(state_vectors(len(basis))) for _ in range(count)]
    sectors = [states.tolist() for states in basis.sectors.values()]
    vectors = []
    for _ in range(count):
        states = draw(st.sampled_from(sectors))
        support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=len(states)))
        vectors.append({i: draw(coefficients) for i in support})
    return basis, vectors


def assert_tables_match_the_monomial_contraction(basis, vectors):
    diagonal = coulomb_table(vectors, basis)
    pairwise = coulomb_table(vectors, basis, pairwise=True)
    assert set(diagonal) == {(i, i) for i in range(len(vectors))}
    assert set(pairwise) == {(i, j) for i in range(len(vectors)) for j in range(i, len(vectors))}
    for (i, j), value in pairwise.items():
        assert value == monomial_reference(vectors[i], vectors[j], basis)
    for (i, _), value in diagonal.items():
        assert value == pairwise[i, i]


class TestStateBasisOperator:
    @settings(max_examples=80, deadline=None)
    @given(bra_ket_cases())
    def test_matches_monomial_contraction_exactly(self, case):
        basis, bra, ket = case
        assert coulomb_expectation(bra, ket, basis) == monomial_reference(bra, ket, basis)

    @settings(max_examples=60, deadline=None)
    @given(table_cases())
    def test_tables_match_monomial_contraction_exactly(self, case):
        assert_tables_match_the_monomial_contraction(*case)

    @pytest.mark.parametrize("stat", [FERMION, BOSON], ids=["fermion", "boson"])
    def test_large_coefficients_are_summed_in_limbs(self, monkeypatch, stat):
        # Coefficients near 2^40 leave no int64 room for a product of two
        # of them: the amplitudes and the block values are both cut into
        # several limbs, and every entry still equals the exact reference.
        basis = level(3, 2, 6, stat)
        vectors = [
            {i: (-1) ** i * (2**40 + 12345 * i + 1) for i in states.tolist()}
            for states in basis.sectors.values()
            if len(states) > 1
        ]
        cuts = []
        real = coulomb._limbs

        def spy(values, width, count):
            cuts.append(count)
            return real(values, width, count)

        monkeypatch.setattr(coulomb, "_limbs", spy)
        assert_tables_match_the_monomial_contraction(basis, vectors)
        assert min(cuts) > 1

    def test_a_table_imports_no_masked_arrays(self):
        # np.unique asked for no indices imports numpy.ma on first use,
        # about 10 ms of a fresh process's first table.
        source = os.path.dirname(os.path.dirname(coulomb.__file__))
        script = (
            "import sys\n"
            "from shapes.coulomb import coulomb_table\n"
            "from shapes.counting import FERMION\n"
            "from shapes.deflation import LevelBasis\n"
            "coulomb_table([{0: 1, 1: 2}, {2: 1}], LevelBasis(3, 2, 4, FERMION), pairwise=True)\n"
            "print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=source)
        run = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True)
        assert run.stdout.decode().split() == ["False"]


def all_pairs_reference(bra, ket, basis):
    """<bra| sum_{i<j} 1/r_ij |ket> / norms, summed over every pair i < j
    and every monomial pair whose spectator rows match."""
    n, d = basis.n, basis.d

    def rows(coeffs):
        poly = basis.materialize(coeffs)
        return [
            ([m[p * d : (p + 1) * d] for p in range(n)], float(c))
            for m, c in poly.terms.items()
        ]

    def norm(terms):
        return sum(
            c * c * math.prod(float(hermite_norm_rational(r)) for r in rs)
            for rs, c in terms
        ) * math.pi ** (n * d / 2)

    bra_rows, ket_rows = rows(bra), rows(ket)
    parts = []
    for i, j in itertools.combinations(range(n), 2):
        spectators = [p for p in range(n) if p not in (i, j)]
        for rb, cb in bra_rows:
            for rk, ck in ket_rows:
                if any(rb[p] != rk[p] for p in spectators):
                    continue
                spect = math.prod(
                    float(hermite_norm_rational(rb[p])) * math.pi ** (d / 2)
                    for p in spectators
                )
                parts.append(
                    cb * ck * spect * two_body_element(rb[i], rb[j], rk[i], rk[j])
                )
    return math.fsum(parts) / math.sqrt(norm(bra_rows) * norm(ket_rows))


@pytest.fixture(scope="module")
def multiplet():
    from shapes.deflation import deflate_sparse
    from shapes.polycore import enumerate_euler_monomials
    from shapes.shapegen import generate_shapes

    catalog = generate_shapes(3, 2, FERMION)
    basis = catalog.level_basis(4)
    (shape,) = catalog.shapes_at(4)
    support = set(shape.coeffs)
    partners = []
    for rec in catalog.shapes:
        if rec.grade >= 4:
            continue
        spoly = catalog.level_basis(rec.grade).materialize(rec.coeffs)
        for euler in enumerate_euler_monomials(3, 2, 4 - rec.grade):
            vec = deflate_sparse(spoly * euler.materialize(), basis)
            if set(vec) <= support:
                partners.append((f"{euler.label()}*{rec.id}", vec))
    return catalog, basis, shape, partners


class TestShapeSeparation:
    """Qualitative Coulomb structure of the (3, 2) grade-4 level."""

    def test_multiplet_is_a_triplet(self, multiplet):
        _, _, shape, partners = multiplet
        assert len(partners) == 3

    def test_shape_separated_from_multiplet(self, multiplet):
        _, basis, shape, partners = multiplet
        v_shape = coulomb_expectation(shape.coeffs, shape.coeffs, basis)
        for label, vec in partners:
            v = coulomb_expectation(vec, vec, basis)
            assert abs(v - v_shape) / abs(v_shape) > 1e-6, label

    def test_inter_shape_coupling_smaller_than_multiplet(self, multiplet):
        catalog, basis, shape, partners = multiplet
        basis3 = catalog.level_basis(3)
        shapes3 = catalog.shapes_at(3)
        inter = max(
            abs(coulomb_expectation(a.coeffs, b.coeffs, basis3))
            for i, a in enumerate(shapes3)
            for b in shapes3[i + 1 :]
        )
        vecs = [shape.coeffs] + [v for _, v in partners]
        within = max(
            abs(coulomb_expectation(a, b, basis))
            for i, a in enumerate(vecs)
            for b in vecs[i + 1 :]
        )
        assert inter < within


@st.composite
def rotation_cases(draw):
    """(level, u, w): two random integer vectors over a small level of
    d = 2 or 3, in either statistics."""
    n, d, stat = draw(
        st.sampled_from([(n, d, s) for n in (2, 3) for d in (2, 3) for s in (FERMION, BOSON)])
    )
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 3))
    basis = level(n, d, grade, stat)
    assume(len(basis) <= 60)
    vector = st.dictionaries(
        st.integers(0, len(basis) - 1), st.integers(-5, 5).filter(bool), min_size=1, max_size=4
    )
    return basis, draw(vector), draw(vector)


def _scaled_pairs(factor_of):
    """A mutation of coulomb._pair_values: each value times an integer
    factor, read from the per-axis degrees of x (of the pair lo = x y) and
    z (of hi = z w), so the numerators stay exact."""
    real = coulomb._pair_values

    def mutated(basis, lo, hi):
        limit = basis.codes.grow(basis.grade)
        degrees = basis.codes.axis_degrees(basis.grade)
        return factor_of(degrees[lo // limit], degrees[hi // limit]) * real(basis, lo, hi)

    return mutated


MUTATIONS = {
    # x2 where the first orbital lies on axis 0 only.
    "axis-0-first": lambda x, z: np.where((x[:, 1:] == 0).all(axis=1), 2, 1),
    # x2 where z has an odd axis-0 degree.
    "odd-z": lambda x, z: np.where(z[:, 0] % 2 == 1, 2, 1),
}


class TestRotationCovariance:
    """V commutes with rotations: D<u|V|Kw> + D<Ku|V|w> = 0 exactly for the
    generators K_ab (rotation_oracle), which share no code with the pair
    values.  The check pairs different vectors, or takes whole levels: a
    single shape's <u|V|Ku> is 0 by parity alone, whatever V is."""

    @settings(max_examples=60, deadline=None)
    @given(rotation_cases())
    def test_random_vectors(self, case):
        basis, u, w = case
        checked = 0
        for a, b in itertools.combinations(range(basis.d), 2):
            if rotation_oracle.rotate(basis, u, a, b) or rotation_oracle.rotate(basis, w, a, b):
                assert rotation_oracle.pair_defect(basis, u, w, a, b) == 0, (a, b)
                checked += 1
        assume(checked)

    @pytest.mark.parametrize(
        "system, grade, size",
        [((4, 2, FERMION), 8, 161), ((3, 3, FERMION), 6, 443)],
        ids=["4-2-fermion", "3-3-fermion"],
    )
    def test_whole_levels(self, system, grade, size):
        n, d, stat = system
        basis = level(n, d, grade, stat)
        assert len(basis) == size
        v = rotation_oracle.coulomb_matrix(basis)
        for a, b in itertools.combinations(range(d), 2):
            assert not (rotation_oracle.level_defect(basis, v, a, b) != 0).any(), (a, b)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize(
        "system, grade",
        [((4, 2, FERMION), 8), ((3, 2, BOSON), 4)],
        ids=["4-2-fermion", "3-2-boson"],
    )
    def test_a_wrong_pair_value_breaks_it(self, monkeypatch, mutation, system, grade):
        basis = level(*system[:2], grade, system[2])
        monkeypatch.setattr(coulomb, "_pair_values", _scaled_pairs(MUTATIONS[mutation]))
        v = rotation_oracle.coulomb_matrix(basis)
        defect = rotation_oracle.level_defect(basis, v, 0, 1)
        i, j = np.argwhere(defect != 0)[0].tolist()
        # Entry (i, j) is the pair check on the states i and j.
        assert rotation_oracle.pair_defect(basis, {i: 1}, {j: 1}, 0, 1) == defect[i, j] != 0
