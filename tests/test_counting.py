"""Tests for the q-series counting layer."""

from itertools import combinations_with_replacement, combinations, permutations

import pytest

from shapes.counting import (
    BOSON,
    FERMION,
    GradedQPolynomial,
    Statistics,
    dimension_series,
    euler_series,
    level_dimension,
    sector_shape_counts,
    shape_polynomial,
    shape_recursion_factor,
    total_shape_count,
)
from shapes.errors import InternalConsistencyError


def brute_force_euler(n, truncation, statistics):
    """Count 1D n-particle states grade by grade by direct enumeration."""
    counts = {}
    if statistics is FERMION:
        tuples = combinations(range(truncation + 1), n)
    else:
        tuples = combinations_with_replacement(range(truncation + 1), n)
    for orbs in tuples:
        g = sum(orbs)
        if g <= truncation:
            counts[g] = counts.get(g, 0) + 1
    return counts


class TestGradedQPolynomial:
    def test_zero_coefficients_dropped(self):
        p = GradedQPolynomial({0: 1, 3: 0, 5: 2})
        assert p.coeffs == {0: 1, 5: 2}

    def test_truncation_drops_high_degrees(self):
        p = GradedQPolynomial({0: 1, 9: 4}, truncation_degree=5)
        assert p.coeffs == {0: 1}

    def test_multiplication_truncation_is_min(self):
        a = GradedQPolynomial({0: 1, 1: 1}, truncation_degree=7)
        b = GradedQPolynomial({0: 1, 2: 1}, truncation_degree=4)
        assert (a * b).truncation_degree == 4

    def test_exact_times_truncated_keeps_truncation(self):
        a = GradedQPolynomial({0: 1, 1: 1})
        b = GradedQPolynomial({0: 1}, truncation_degree=3)
        assert (a * b).truncation_degree == 3
        assert (a * a).truncation_degree is None

    def test_coefficient_beyond_truncation_raises(self):
        p = GradedQPolynomial({0: 1}, truncation_degree=3)
        with pytest.raises(ValueError):
            p.coefficient(4)

    def test_exact_division(self):
        # (1-q^6)/(1-q^2) = 1 + q^2 + q^4
        num = GradedQPolynomial({0: 1, 6: -1})
        den = GradedQPolynomial({0: 1, 2: -1})
        assert num.divide_exact(den).coeffs == {0: 1, 2: 1, 4: 1}

    def test_inexact_division_raises(self):
        num = GradedQPolynomial({0: 1, 5: -1})
        den = GradedQPolynomial({0: 1, 2: -1})
        with pytest.raises(InternalConsistencyError):
            num.divide_exact(den)

    def test_json_round_trip(self):
        p = shape_polynomial(3, 3)
        assert GradedQPolynomial.from_json_obj(p.to_json_obj()) == p

    def test_str(self):
        assert str(shape_polynomial(3, 2)) == "q^2 + 4q^3 + q^4"


class TestEulerSeries:
    def test_n3_fermion_golden(self):
        # Expected values computed by expanding prod 1/(1-q^k) as truncated
        # geometric series; cross-checked by the brute-force oracle below.
        series = euler_series(3, 9, FERMION)
        assert series.coeffs == {3: 1, 4: 1, 5: 2, 6: 3, 7: 4, 8: 5, 9: 7}

    def test_single_particle(self):
        assert euler_series(1, 4, FERMION).coeffs == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_truncation_below_ground_shift(self):
        assert euler_series(3, 0, FERMION).is_zero

    def test_zero_particles(self):
        assert euler_series(0, 5, FERMION).coeffs == {0: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_against_brute_force(self, n, stat):
        truncation = 10
        series = euler_series(n, truncation, stat)
        assert series.coeffs == brute_force_euler(n, truncation, stat)

    def test_fermion_ground_shift(self):
        for n in range(1, 6):
            assert euler_series(n, 20, FERMION).lowest_degree() == n * (n - 1) // 2
            assert euler_series(n, 20, BOSON).lowest_degree() == 0


class TestShapeRecursionFactor:
    def test_geometric_sum(self):
        assert shape_recursion_factor(3, 1).coeffs == {0: 1, 1: 1, 2: 1}

    def test_n3_k2(self):
        # (1-q^3)(1-q^2)/(1-q^2) = 1 - q^3, by the exact-division oracle
        assert shape_recursion_factor(3, 2).coeffs == {0: 1, 3: -1}

    def test_n4_k4(self):
        expected = GradedQPolynomial({0: 1})
        for j in (1, 2, 3):
            expected = expected * GradedQPolynomial({0: 1, j: -1})
        assert shape_recursion_factor(4, 4) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_division_always_exact(self, n):
        for k in range(1, n + 1):
            poly = shape_recursion_factor(n, k)
            product = poly * GradedQPolynomial({0: 1, k: -1})
            numerator = GradedQPolynomial({0: 1})
            for j in range(n - k + 1, n + 1):
                numerator = numerator * GradedQPolynomial({0: 1, j: -1})
            assert product == numerator


class TestShapePolynomial:
    def test_golden_fermion_3_2(self):
        assert shape_polynomial(3, 2, FERMION).coeffs == {2: 1, 3: 4, 4: 1}

    def test_golden_fermion_3_3(self):
        assert shape_polynomial(3, 3, FERMION).coeffs == {
            9: 1, 7: 3, 6: 7, 5: 6, 4: 6, 3: 10, 2: 3,
        }

    def test_golden_boson_3_3(self):
        assert shape_polynomial(3, 3, BOSON).coeffs == {
            0: 1, 2: 3, 3: 7, 4: 6, 5: 6, 6: 10, 7: 3,
        }

    def test_golden_fermion_2_3(self):
        assert shape_polynomial(2, 3, FERMION).coeffs == {1: 3, 3: 1}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_dimension_single_monomial(self, n):
        assert shape_polynomial(n, 1, FERMION).coeffs == {n * (n - 1) // 2: 1}

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_saturation(self, n, d, stat):
        assert shape_polynomial(n, d, stat).evaluate_at_one() == total_shape_count(n, d)

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_palindrome_even_dimension(self, n, stat):
        assert shape_polynomial(n, 2, stat).is_palindromic()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_mirror_odd_dimension(self, n):
        _, fermion = shape_polynomial(n, 3, FERMION).coefficient_list()
        _, boson = shape_polynomial(n, 3, BOSON).coefficient_list()
        assert fermion[::-1] == boson

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_boson_ground_state_unique(self, n, d):
        poly = shape_polynomial(n, d, BOSON)
        assert poly.coefficient(0) == 1
        assert poly.coefficient(1) == 0

    def test_trivial_cases(self):
        assert shape_polynomial(0, 2).coeffs == {0: 1}
        assert shape_polynomial(1, 3).coeffs == {0: 1}


class TestLevelDimension:
    def test_paper_values(self):
        assert level_dimension(3, 2, 3, FERMION) == 6
        assert level_dimension(3, 2, 4, FERMION) == 14
        assert level_dimension(3, 3, 9, FERMION) == 3838

    def test_total_count(self):
        assert total_shape_count(3, 3) == 36
        assert total_shape_count(4, 3) == 576
        assert total_shape_count(5, 1) == 1

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_series_identity(self, stat):
        # The unshifted Euler factor to the d-th power times the shape
        # polynomial reproduces every level dimension.
        for n, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            series = euler_series(n, 10, BOSON) ** d * shape_polynomial(n, d, stat)
            for grade in range(11):
                assert series.coefficient(grade) == level_dimension(n, d, grade, stat)

    def test_dimension_series_matches(self):
        series = dimension_series(3, 2, 6)
        assert [series.coefficient(g) for g in range(7)] == [
            level_dimension(3, 2, g) for g in range(7)
        ]


class TestSectorShapeCounts:
    SYSTEMS = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 4)]

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("n, d", SYSTEMS)
    def test_sums_to_the_per_grade_coefficients(self, n, d, stat):
        by_grade = {}
        for sector, count in sector_shape_counts(n, d, stat).items():
            assert len(sector) == d and count > 0
            by_grade[sum(sector)] = by_grade.get(sum(sector), 0) + count
        assert by_grade == shape_polynomial(n, d, stat).coeffs

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("n, d", SYSTEMS)
    def test_symmetric_under_axis_permutations(self, n, d, stat):
        counts = sector_shape_counts(n, d, stat)
        for sector, count in counts.items():
            assert all(counts.get(p) == count for p in permutations(sector))

    def test_worked_example_3_2(self):
        # g0 at (1,1); g11 (3,0), g12+g14 (2,1), g13+g15 (1,2), g16 (0,3); g2 (2,2).
        assert sector_shape_counts(3, 2, FERMION) == {
            (1, 1): 1, (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (2, 2): 1,
        }

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sector_shape_counts(-1, 2)
        with pytest.raises(ValueError):
            sector_shape_counts(2, 0)


def test_statistics_parse():
    assert Statistics.parse("fermion") is FERMION
    assert Statistics.parse("BOSON") is BOSON
    with pytest.raises(ValueError):
        Statistics.parse("anyon")
