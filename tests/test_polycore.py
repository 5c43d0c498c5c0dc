"""Tests for the exact polynomial algebra and basis enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapes.counting import BOSON, FERMION, level_dimension
from shapes.errors import InternalConsistencyError
from shapes.polycore import (
    ExactPolynomial,
    SlaterState,
    canonical_rows,
    divide_exact,
    enumerate_basis,
    EulerMonomial,
    enumerate_euler_monomials,
    euler_power,
    euler_table,
    orbital_codes,
    orbital_key,
    vandermonde,
)

from poly_helpers import swap_particles


def poly_from_terms(n, d, entries):
    """entries: list of (flat exponent tuple, coeff)."""
    return ExactPolynomial(n, d, dict(entries))


class TestCanonicalOrder:
    def test_lex_tie_break_at_equal_degree(self):
        assert orbital_key((1, 0)) > orbital_key((0, 1))

    def test_degree_dominates(self):
        assert orbital_key((0, 2)) > orbital_key((1, 0))
        assert orbital_key((0, 0, 2)) > orbital_key((1, 0, 0))

    def test_equal(self):
        assert orbital_key((0, 0)) == orbital_key((0, 0))
        assert sorted([(0, 1), (0, 0), (1, 0)], key=orbital_key) == [(0, 0), (0, 1), (1, 0)]


class TestExpandState:
    def test_ground_state_3_2_golden(self):
        # Cofactor expansion of the 3x3 determinant with rows t, u, 1.
        g0 = SlaterState.from_orbitals([(1, 0), (0, 1), (0, 0)], FERMION)
        expected = poly_from_terms(
            3,
            2,
            [
                ((1, 0, 0, 1, 0, 0), 1),   # t1 u2
                ((1, 0, 0, 0, 0, 1), -1),  # t1 u3
                ((0, 1, 1, 0, 0, 0), -1),  # u1 t2
                ((0, 0, 1, 0, 0, 1), 1),   # t2 u3
                ((0, 1, 0, 0, 1, 0), 1),   # u1 t3
                ((0, 0, 0, 1, 1, 0), -1),  # u2 t3
            ],
        )
        assert g0.expand() == expected

    def test_two_particle_1d(self):
        fermion = SlaterState.from_orbitals([(1,), (0,)], FERMION)
        boson = SlaterState.from_orbitals([(1,), (0,)], BOSON)
        t1 = ExactPolynomial.variable(2, 1, 0, 0)
        t2 = ExactPolynomial.variable(2, 1, 1, 0)
        assert fermion.expand() == t1 - t2
        assert boson.expand() == t1 + t2

    def test_boson_repeated_orbital_multiplicity(self):
        state = SlaterState.from_orbitals([(1,), (1,)], BOSON)
        expanded = state.expand()
        assert expanded == 2 * ExactPolynomial(2, 1, {(1, 1): 1})
        assert state.leading_coefficient() == 2

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_exchange_symmetry(self, stat):
        rng = random.Random(7)
        for _ in range(10):
            orbs = set()
            while len(orbs) < 3:
                orbs.add((rng.randrange(3), rng.randrange(3)))
            state = SlaterState.from_orbitals(sorted(orbs), stat)
            poly = state.expand()
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                swapped = swap_particles(poly, i, j)
                if stat is FERMION:
                    assert swapped == -1 * poly
                else:
                    assert swapped == poly

    def test_support_disjointness_within_level(self):
        states = enumerate_basis(3, 2, 4, FERMION)
        seen = {}
        for idx, codes in enumerate(states):
            orbitals = orbital_codes(2).decode(codes)
            for mono in SlaterState.from_orbitals(orbitals, FERMION).expand().terms:
                assert mono not in seen, "supports overlap"
                seen[mono] = idx

    def test_pauli_rejection(self):
        with pytest.raises(ValueError):
            SlaterState.from_orbitals([(1, 0), (1, 0), (0, 0)], FERMION)


class TestFromOrbitals:
    @pytest.mark.parametrize(
        "orbitals, stat, message",
        [
            ([], BOSON, "a state needs at least one orbital"),
            ([(1, 0), (0,)], BOSON, "orbitals of mixed dimension"),
            ([(1, 0), (0, -1)], FERMION, "negative exponent in orbital"),
            ([(1.0, 0), (0, 0)], FERMION, "orbital exponent 1.0 is not an integer"),
            ([(True, 0), (0, 0)], BOSON, "orbital exponent True is not an integer"),
            ([(0, 1), (1, 0), (0, 1)], FERMION, "fermion orbitals must be pairwise distinct"),
        ],
        ids=["empty", "mixed-dimension", "negative", "float", "bool", "repeated-fermion-row"],
    )
    def test_rejects_invalid_orbitals(self, orbitals, stat, message):
        with pytest.raises(ValueError, match=message):
            SlaterState.from_orbitals(orbitals, stat)


def _exchange_phase(keys, fermion):
    """Phase of bubble-sorting keys descending: -1 per adjacent exchange
    for a determinant, 0 if two rows coincide; 1 for a permanent."""
    keys = list(keys)
    if not fermion:
        return 1
    if len(set(keys)) < len(keys):
        return 0
    sign = 1
    for end in range(len(keys) - 1, 0, -1):
        for a in range(end):
            if keys[a] < keys[a + 1]:
                keys[a], keys[a + 1] = keys[a + 1], keys[a]
                sign = -sign
    return sign


def _cofactor_expansion(rows, fermion):
    """Determinant (fermion) or permanent (boson) of M[i][p] = x_p^rows[i],
    by cofactor expansion along the first row."""
    n, d = len(rows), len(rows[0])

    def minor(i, particles):
        if i == n:
            return ExactPolynomial.constant(n, d)
        total = ExactPolynomial.zero(n, d)
        for j, p in enumerate(particles):
            flat = [0] * (n * d)
            flat[p * d : (p + 1) * d] = rows[i]
            entry = ExactPolynomial(n, d, {tuple(flat): -1 if fermion and j % 2 else 1})
            total = total + entry * minor(i + 1, particles[:j] + particles[j + 1 :])
        return total

    return minor(0, list(range(n)))


@st.composite
def row_orders(draw):
    """Orbital rows in an arbitrary order, repeats possible."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    orbital = st.tuples(*[st.integers(0, 2)] * d)
    return draw(st.lists(orbital, min_size=n, max_size=n))


class TestCanonicalRows:
    @settings(max_examples=150, deadline=None)
    @given(row_orders(), st.sampled_from([FERMION, BOSON]))
    def test_phase_is_the_exchange_count(self, rows, stat):
        keys = [orbital_key(o) for o in rows]
        fermion = stat is FERMION
        assert canonical_rows(keys, fermion) == (
            sorted(keys, reverse=True),
            _exchange_phase(keys, fermion),
        )

    @settings(max_examples=80, deadline=None)
    @given(row_orders(), st.sampled_from([FERMION, BOSON]))
    def test_expand_is_the_cofactor_expansion(self, rows, stat):
        fermion = stat is FERMION
        _sorted, phase = canonical_rows([orbital_key(o) for o in rows], fermion)
        expansion = _cofactor_expansion(rows, fermion)
        if not phase:
            assert expansion.is_zero
            with pytest.raises(ValueError):
                SlaterState.from_orbitals(rows, stat)
            return
        state = SlaterState.from_orbitals(rows, stat)
        assert state.expand() == _cofactor_expansion(state.orbitals, fermion)
        assert expansion == phase * state.expand()


class TestSymmetricFunctions:
    def test_e1(self):
        e1 = euler_power(1, 1, 0, 3, 2)
        expected = sum(
            (ExactPolynomial.variable(3, 2, i, 0) for i in range(3)),
            ExactPolynomial.zero(3, 2),
        )
        assert e1 == expected

    def test_e3_top(self):
        e3 = euler_power(3, 1, 0, 3, 1)
        assert e3 == ExactPolynomial(3, 1, {(1, 1, 1): 1})

    def test_e2_other_axis(self):
        e2 = euler_power(2, 1, 1, 3, 2)
        assert e2 == ExactPolynomial(
            3, 2, {(0, 1, 0, 1, 0, 0): 1, (0, 1, 0, 0, 0, 1): 1, (0, 0, 0, 1, 0, 1): 1}
        )

    def test_m_beyond_n_is_refused(self):
        with pytest.raises(ValueError, match="need 1 <= m <= n, got m=4"):
            euler_power(4, 1, 0, 3, 1)

    def test_euler_power_squares_monomialwise(self):
        squared = euler_power(1, 2, 0, 3, 1)
        assert squared == ExactPolynomial(
            3, 1, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
        )

    def test_euler_power_k1_is_elementary(self):
        t = [ExactPolynomial.variable(3, 2, i, 0) for i in range(3)]
        assert euler_power(2, 1, 0, 3, 2) == t[0] * t[1] + t[0] * t[2] + t[1] * t[2]

    def test_euler_power_single_subset(self):
        assert euler_power(2, 2, 0, 2, 1) == ExactPolynomial(2, 1, {(2, 2): 1})

    def test_euler_power_disjoint_supports_at_equal_grade(self):
        # distinct (m, k) with m*k equal never share a monomial on one axis
        n = 4
        cases = {}
        for m in range(1, n + 1):
            for k in range(1, 5):
                cases.setdefault(m * k, []).append(euler_power(m, k, 0, n, 1))
        for polys in cases.values():
            seen = set()
            for poly in polys:
                assert not (set(poly.terms) & seen)
                seen |= set(poly.terms)


class TestEulerMonomials:
    def test_degree_two_one_axis(self):
        labels = sorted(str(e) for e in enumerate_euler_monomials(3, 1, 2))
        assert labels == ["e1(t)^2", "e2(t)"]

    def test_degree_one_two_axes(self):
        labels = sorted(str(e) for e in enumerate_euler_monomials(3, 2, 1))
        assert labels == ["e1(t)", "e1(u)"]

    def test_degree_two_two_axes(self):
        labels = sorted(str(e) for e in enumerate_euler_monomials(3, 2, 2))
        assert labels == [
            "e1(t)*e1(u)", "e1(t)^2", "e1(u)^2", "e2(t)", "e2(u)",
        ]

    def test_degree_zero_is_the_constant(self):
        monos = enumerate_euler_monomials(3, 2, 0)
        assert len(monos) == 1
        assert monos[0].degree == 0
        assert monos[0].materialize() == ExactPolynomial.constant(3, 2)

    def test_materialized_grade(self):
        for em in enumerate_euler_monomials(3, 2, 4):
            poly = em.materialize()
            assert poly.grade() == 4 == em.degree


def enumerated_by_recursion(n, d, degree):
    """The Euler monomials of one degree, by the recursion over (axis, m)
    positions that enumerate_euler_monomials documents."""
    positions = [(axis, m) for axis in range(d) for m in range(1, n + 1)]
    exps = [[0] * n for _ in range(d)]
    out = []

    def rec(pos, remaining):
        if pos == len(positions):
            if remaining == 0:
                out.append(EulerMonomial(n, d, tuple(map(tuple, exps))))
            return
        axis, m = positions[pos]
        for k in range(remaining // m + 1):
            exps[axis][m - 1] = k
            rec(pos + 1, remaining - m * k)
        exps[axis][m - 1] = 0

    rec(0, degree)
    return out


class TestEulerTable:
    @pytest.mark.parametrize("n, d, top", [(3, 2, 6), (4, 2, 8), (2, 3, 5), (1, 2, 3), (3, 1, 7)])
    def test_numbers_every_monomial_by_degree_and_last_factor(self, n, d, top):
        table = euler_table(n, d, top)
        numbers = {}
        for degree in range(top + 1):
            monomials = enumerated_by_recursion(n, d, degree)
            assert enumerate_euler_monomials(n, d, degree) == monomials
            first = table.starts[degree]
            assert table.starts[degree + 1] - first == len(monomials)
            numbers.update((e, first + j) for j, e in enumerate(monomials))
        assert len(table) == len(numbers) and table.monomial(0).factors() == []
        assert table.prefix[0] == table.factor[0] == -1
        for euler, i in numbers.items():
            assert table.monomial(i) == euler and table.degrees[i] == euler.degree
            assert table.shifts[i].tolist() == [
                sum(m * k for m, k in enumerate(per_axis, start=1)) for per_axis in euler.exponents
            ]
            factors = euler.factors()
            if factors:
                # The monomial is its last factor times its prefix.
                assert table.factor_of(table.factor[i]) == factors[-1]
                assert table.monomial(table.prefix[i]).factors() == factors[:-1]

    def test_numbers_do_not_depend_on_the_top_degree(self):
        small, large = euler_table(3, 2, 4), euler_table(3, 2, 9)
        assert large.starts[: 6].tolist() == small.starts.tolist()
        for name in ("prefix", "factor", "degrees"):
            assert getattr(large, name)[: len(small)].tolist() == getattr(small, name).tolist()


class TestEnumerateBasis:
    def test_single_ground_state(self):
        states = enumerate_basis(3, 2, 2, FERMION)
        assert len(states) == 1
        assert orbital_codes(2).decode(states[0]) == ((1, 0), (0, 1), (0, 0))

    def test_first_level_six_states(self):
        states = enumerate_basis(3, 2, 3, FERMION)
        assert len(states) == 6

    def test_large_level_count(self):
        assert len(enumerate_basis(3, 3, 9, FERMION)) == 3838

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_match_dimension_series(self, n, d, stat):
        for grade in range(11):
            assert len(enumerate_basis(n, d, grade, stat)) == level_dimension(
                n, d, grade, stat
            )

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_states_are_canonical(self, n, d, stat):
        for grade in range(8):
            for state in enumerate_basis(n, d, grade, stat):
                orbitals = orbital_codes(d).decode(state)
                assert SlaterState.from_orbitals(orbitals, stat).orbitals == orbitals

    def test_descending_enumeration_order(self):
        states = enumerate_basis(3, 2, 4, FERMION)
        keys = [tuple(e for orb in orbital_codes(2).decode(s) for e in orb) for s in states]
        from shapes.polycore import monomial_sort_key

        sorted_keys = sorted(keys, key=lambda m: monomial_sort_key(m, 2), reverse=True)
        assert keys == sorted_keys


class TestArithmetic:
    def test_difference_of_squares(self):
        t1 = ExactPolynomial.variable(2, 1, 0, 0)
        t2 = ExactPolynomial.variable(2, 1, 1, 0)
        assert (t1 - t2) * (t1 + t2) == t1 * t1 - t2 * t2

    def test_multiply_by_one(self):
        poly = vandermonde(3)
        assert poly * ExactPolynomial.constant(3, 1) == poly

    def test_grade_additivity(self):
        rng = random.Random(11)
        for _ in range(5):
            states = enumerate_basis(3, 2, rng.randrange(2, 5), FERMION)
            orbitals = orbital_codes(2).decode(states[rng.randrange(len(states))])
            a = SlaterState.from_orbitals(orbitals, FERMION).expand()
            e = euler_power(rng.randrange(1, 3), 1, rng.randrange(2), 3, 2)
            assert (a * e).grade() == a.grade() + e.grade()

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ValueError):
            ExactPolynomial.constant(2, 1) * ExactPolynomial.constant(2, 2)

    def test_first_level_trivial_product_identity(self):
        # e_1(t) g_0 = -g_12 + g_14
        g0 = SlaterState.from_orbitals([(1, 0), (0, 1), (0, 0)], FERMION).expand()
        g12 = SlaterState.from_orbitals([(1, 1), (1, 0), (0, 0)], FERMION).expand()
        g14 = SlaterState.from_orbitals([(2, 0), (0, 1), (0, 0)], FERMION).expand()
        product = euler_power(1, 1, 0, 3, 2) * g0
        assert product == g14 - g12
        assert len(product.terms) == 12


class TestVandermonde:
    def test_two_particles(self):
        t1 = ExactPolynomial.variable(2, 1, 0, 0)
        t2 = ExactPolynomial.variable(2, 1, 1, 0)
        assert vandermonde(2) == t1 - t2

    def test_three_particles_six_unit_terms(self):
        poly = vandermonde(3)
        assert len(poly.terms) == 6
        assert all(abs(c) == 1 for c in poly.terms.values())

    def test_single_particle_is_one(self):
        assert vandermonde(1) == ExactPolynomial.constant(1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_ground_state_determinant(self, n):
        ground = SlaterState.from_orbitals([(k,) for k in range(n)], FERMION)
        assert vandermonde(n) == ground.expand()


class TestDivideExact:
    def test_round_trip(self):
        a = vandermonde(3)
        b = euler_power(2, 1, 0, 3, 1)
        assert divide_exact(a * b, b) == a

    def test_not_divisible_raises(self):
        t1 = ExactPolynomial.variable(2, 1, 0, 0)
        t2 = ExactPolynomial.variable(2, 1, 1, 0)
        with pytest.raises(InternalConsistencyError):
            divide_exact(t1 + t2, t1 - t2)


class TestSerialization:
    def test_json_round_trip(self):
        state = SlaterState.from_orbitals([(2, 0), (0, 1), (0, 0)], FERMION)
        poly = state.expand() * Fraction(3, 7)
        again = ExactPolynomial.from_json_obj(poly.to_json_obj())
        assert again == poly

    def test_json_sorted_by_canonical_order(self):
        poly = vandermonde(3)
        obj = poly.to_json_obj()
        from shapes.polycore import monomial_sort_key

        flats = [tuple(e for row in t["matrix"] for e in row) for t in obj["terms"]]
        assert flats == sorted(
            flats, key=lambda m: monomial_sort_key(m, 1), reverse=True
        )
