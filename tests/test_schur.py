"""Tests for Schur functions and the 1D Schur-times-Vandermonde factorization."""

from itertools import combinations

import pytest

from shapes.counting import FERMION
from shapes.polycore import (
    ExactPolynomial,
    SlaterState,
    divide_exact,
    euler_power,
    vandermonde,
)
from shapes.schur import Partition, factor_1d, partitions, schur_expand, schur_ratio, schur_ssyt

from poly_helpers import swap_particles


class TestPartition:
    def test_weight(self):
        assert Partition.of(3, 2, 2).weight == 7

    def test_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            Partition.of(1, 2)

    def test_enumeration(self):
        assert len(partitions(6)) == 11  # p(6)
        assert len(partitions(6, max_parts=3)) == 7

    def test_empty(self):
        assert Partition.of().weight == 0


class TestSchurSSYT:
    def test_single_box(self):
        s1 = schur_ssyt(Partition.of(1), 3)
        assert s1 == euler_power(1, 1, 0, 3, 1)

    def test_vertical_two(self):
        s11 = schur_ssyt(Partition.of(1, 1), 3)
        assert s11 == euler_power(2, 1, 0, 3, 1)

    def test_full_column(self):
        for n in (2, 3, 4):
            s = schur_ssyt(Partition.of(*([1] * n)), n)
            assert s == ExactPolynomial(n, 1, {(1,) * n: 1})

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vertical_strips_are_elementary(self, k, n):
        lam = Partition.of(*([1] * k))
        expected = euler_power(k, 1, 0, n, 1) if k <= n else ExactPolynomial.zero(n, 1)
        assert schur_ssyt(lam, n) == expected

    def test_more_parts_than_variables_is_zero(self):
        assert schur_ssyt(Partition.of(1, 1, 1), 2).is_zero

    def test_symmetric_under_variable_permutations(self):
        poly = schur_ssyt(Partition.of(2, 1), 3)
        for i, j in combinations(range(3), 2):
            assert swap_particles(poly, i, j) == poly

    def test_homogeneous_with_natural_coefficients(self):
        for lam in partitions(5, max_parts=3):
            poly = schur_ssyt(lam, 3)
            assert poly.grade() == 5
            assert all(c > 0 for c in poly.terms.values())


class TestSchurRatio:
    def test_single_box_two_vars(self):
        # (z1^2 - z2^2)/(z1 - z2) = z1 + z2, by the division oracle
        num = SlaterState.from_orbitals([(2,), (0,)], FERMION).expand()
        expected = divide_exact(num, vandermonde(2))
        assert schur_ratio(Partition.of(1), 2) == expected
        assert expected == euler_power(1, 1, 0, 2, 1)

    def test_row_two(self):
        poly = schur_ratio(Partition.of(2), 2)
        assert poly == ExactPolynomial(2, 1, {(2, 0): 1, (1, 1): 1, (0, 2): 1})

    def test_empty_partition_is_one(self):
        for n in (1, 2, 3, 4):
            assert schur_ratio(Partition.of(), n) == ExactPolynomial.constant(n, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_equivalence_up_to_weight_six(self, n):
        for weight in range(0, 7):
            for lam in partitions(weight, max_parts=n):
                assert schur_ratio(lam, n) == schur_ssyt(lam, n), (lam, n)


class TestFactor1D:
    def test_ground_state_gives_empty_partition(self):
        state = SlaterState.from_orbitals([(2,), (1,), (0,)], FERMION)
        assert factor_1d(state) == Partition.of()

    def test_one_quantum(self):
        state = SlaterState.from_orbitals([(3,), (1,), (0,)], FERMION)
        assert factor_1d(state) == Partition.of(1)

    def test_two_particles(self):
        state = SlaterState.from_orbitals([(2,), (0,)], FERMION)
        assert factor_1d(state) == Partition.of(1)

    def test_rejects_boson(self):
        from shapes.counting import BOSON

        state = SlaterState.from_orbitals([(1,), (0,)], BOSON)
        with pytest.raises(ValueError):
            factor_1d(state)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_determinant_factors(self, n):
        # Divisibility of any 1D Slater determinant by the ground state.
        for orbs in combinations(range(8, -1, -1), n):
            state = SlaterState.from_orbitals([(o,) for o in orbs], FERMION)
            lam = factor_1d(state)
            assert lam.weight == state.grade - n * (n - 1) // 2


class TestSchurExpand:
    def test_elementary_is_single_schur(self):
        e2 = euler_power(2, 1, 0, 3, 1)
        assert schur_expand(e2) == {Partition.of(1, 1): 1}

    def test_power_sum_expansion(self):
        # p_2 = t1^2 + t2^2 = s_(2) - s_(1,1)
        p2 = ExactPolynomial(2, 1, {(2, 0): 1, (0, 2): 1})
        assert schur_expand(p2) == {Partition.of(2): 1, Partition.of(1, 1): -1}

    def test_round_trip(self):
        poly = euler_power(1, 1, 0, 3, 1) * euler_power(2, 1, 0, 3, 1)
        expansion = schur_expand(poly)
        rebuilt = ExactPolynomial.zero(3, 1)
        for lam, coeff in expansion.items():
            rebuilt = rebuilt + coeff * schur_ssyt(lam, 3)
        assert rebuilt == poly

    def test_rejects_asymmetric_input(self):
        t1 = ExactPolynomial.variable(2, 1, 0, 0)
        t2 = ExactPolynomial.variable(2, 1, 1, 0)
        with pytest.raises(ValueError):
            schur_expand(t2 * t2 * t1)
