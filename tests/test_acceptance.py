"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with pytest -s); tolerances and
runtime budgets are asserted inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from coulomb_oracle import hermite_coefficients, poly_mul, two_body_oracle
from density_oracle import state_vector
from shapes.counting import (
    BOSON,
    FERMION,
    level_dimension,
    shape_polynomial,
    total_shape_count,
)
from shapes.coulomb import (
    beta_integral_exact,
    coulomb_expectation,
    hermite_linearization,
    two_body_element,
)
from shapes.deflation import LevelBasis, deflate_sparse
from shapes.polycore import (
    SlaterState,
    enumerate_basis,
    enumerate_euler_monomials,
    euler_power,
)
from shapes.realize import Axis, Realization, one_particle_density, realize_polynomial
from shapes.schur import Partition, factor_1d, partitions, schur_ratio, schur_ssyt
from shapes.shapegen import generate_shapes


class _Clock:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} ({elapsed:7.2f}s)  {self.description}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def fstate(orbitals):
    return SlaterState.from_orbitals(orbitals, FERMION)


def rref(vectors, dim):
    rows = [
        [Fraction(v.get(i, 0) if isinstance(v, dict) else v[i]) for i in range(dim)]
        for v in vectors
    ]
    pivot_row = 0
    for col in range(dim):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return [tuple(r) for r in rows[:pivot_row]]


def test_criterion_01_golden_shape_polynomials():
    with _Clock(1, "golden shape polynomials", 1.0):
        assert shape_polynomial(3, 2, FERMION).coeffs == {2: 1, 3: 4, 4: 1}
        assert shape_polynomial(3, 3, FERMION).coeffs == {
            9: 1, 7: 3, 6: 7, 5: 6, 4: 6, 3: 10, 2: 3,
        }
        assert shape_polynomial(3, 3, BOSON).coeffs == {
            0: 1, 2: 3, 3: 7, 4: 6, 5: 6, 6: 10, 7: 3,
        }
        assert shape_polynomial(2, 3, FERMION).coeffs == {1: 3, 3: 1}


def test_criterion_02_saturation_law():
    with _Clock(2, "saturation P(1) = N!^(d-1) for N<=5, d<=3, both statistics", 10.0):
        for n in range(1, 6):
            for d in range(1, 4):
                expected = total_shape_count(n, d)
                for stat in (FERMION, BOSON):
                    assert shape_polynomial(n, d, stat).evaluate_at_one() == expected


def test_criterion_03_symmetry_laws():
    with _Clock(3, "palindrome (d=2) and fermion/boson mirror (d=3)", 10.0):
        for n in range(1, 6):
            for stat in (FERMION, BOSON):
                assert shape_polynomial(n, 2, stat).is_palindromic()
        for n in range(1, 5):
            _, fermion = shape_polynomial(n, 3, FERMION).coefficient_list()
            _, boson = shape_polynomial(n, 3, BOSON).coefficient_list()
            assert fermion[::-1] == boson


def test_criterion_04_level_dimensions():
    with _Clock(4, "level dimensions from q-series and explicit enumeration", 60.0):
        assert level_dimension(3, 2, 3, FERMION) == 6
        assert level_dimension(3, 2, 4, FERMION) == 14
        assert level_dimension(3, 3, 9, FERMION) == 3838
        assert len(enumerate_basis(3, 2, 3, FERMION)) == 6
        assert len(enumerate_basis(3, 2, 4, FERMION)) == 14
        assert len(enumerate_basis(3, 3, 9, FERMION)) == 3838


def test_criterion_05_worked_example_3_2():
    with _Clock(5, "worked example N=3 d=2: deflation and complements", 5.0):
        basis3 = LevelBasis(3, 2, 3, FERMION)
        g0 = fstate([(1, 0), (0, 1), (0, 0)]).expand()
        g11 = basis3.locate(fstate([(2, 0), (1, 0), (0, 0)]).orbitals)
        g12 = basis3.locate(fstate([(1, 1), (1, 0), (0, 0)]).orbitals)
        g13 = basis3.locate(fstate([(0, 2), (1, 0), (0, 0)]).orbitals)
        g14 = basis3.locate(fstate([(2, 0), (0, 1), (0, 0)]).orbitals)
        g15 = basis3.locate(fstate([(1, 1), (0, 1), (0, 0)]).orbitals)
        g16 = basis3.locate(fstate([(0, 2), (0, 1), (0, 0)]).orbitals)
        # deflation of the two first-level trivial states
        et = deflate_sparse(euler_power(1, 1, 0, 3, 2) * g0, basis3)
        eu = deflate_sparse(euler_power(1, 1, 1, 3, 2) * g0, basis3)
        assert et == {g12: -1, g14: 1}
        assert eu == {g13: -1, g15: 1}
        # grade-3 complement equals the golden four shapes
        catalog = generate_shapes(3, 2, FERMION)
        golden3 = [
            {g11: 1},
            {g12: 1, g14: 1},
            {g13: 1, g15: 1},
            {g16: 1},
        ]
        ours3 = [s.coeffs for s in catalog.shapes_at(3)]
        assert rref(ours3, 6) == rref(golden3, 6)
        # grade-4 complement equals the golden last shape
        basis4 = catalog.level_basis(4)
        golden4 = {
            basis4.locate(fstate([(1, 2), (1, 0), (0, 0)]).orbitals): 1,
            basis4.locate(fstate([(2, 1), (0, 1), (0, 0)]).orbitals): -1,
            basis4.locate(fstate([(2, 0), (0, 2), (0, 0)]).orbitals): 1,
            basis4.locate(fstate([(1, 1), (1, 0), (0, 1)]).orbitals): -1,
        }
        ours4 = [s.coeffs for s in catalog.shapes_at(4)]
        assert rref(ours4, 14) == rref([golden4], 14)


def test_criterion_06_full_catalogs():
    with _Clock(6, "full catalogs: (2,3) golden shapes; (3,3) all 36", 1800.0):
        cat23 = generate_shapes(2, 3, FERMION)
        assert cat23.total_count == 4
        basis1 = cat23.level_basis(1)
        low = {frozenset(s.coeffs.items()) for s in cat23.shapes_at(1)}
        expected_low = set()
        for axis in range(3):
            orb = tuple(1 if a == axis else 0 for a in range(3))
            idx = basis1.locate(fstate([orb, (0, 0, 0)]).orbitals)
            expected_low.add(frozenset({idx: 1}.items()))
        assert low == expected_low
        basis3 = cat23.level_basis(3)
        product = fstate([(1, 0, 0), (0, 0, 0)]).expand()
        product = product * fstate([(0, 1, 0), (0, 0, 0)]).expand()
        product = product * fstate([(0, 0, 1), (0, 0, 0)]).expand()
        (top,) = cat23.shapes_at(3)
        assert rref([top.coeffs], len(basis3)) == rref(
            [deflate_sparse(product, basis3)], len(basis3)
        )

        cat33 = generate_shapes(3, 3, FERMION)
        assert cat33.total_count == 36
        poly = shape_polynomial(3, 3, FERMION)
        for grade in range(poly.degree() + 1):
            assert len(cat33.shapes_at(grade)) == poly.coefficient(grade)
        last = cat33.shapes_at(9)
        assert len(last) == 1
        assert len(cat33.level_basis(9)) == 3838


def test_criterion_07_schur_oracle():
    with _Clock(7, "Schur SSYT vs determinant ratio; 1D factorization", 60.0):
        for n in range(1, 5):
            for weight in range(0, 7):
                for lam in partitions(weight, max_parts=n):
                    assert schur_ratio(lam, n) == schur_ssyt(lam, n)
        for n in range(2, 5):
            for k in range(1, n + 1):
                lam = Partition.of(*([1] * k))
                assert schur_ssyt(lam, n) == euler_power(k, 1, 0, n, 1)
        for n in range(2, 5):
            for orbs in itertools.combinations(range(8, -1, -1), n):
                state = fstate([(o,) for o in orbs])
                lam = factor_1d(state)  # verifies s_lambda * Delta internally
                assert lam.weight == state.grade - n * (n - 1) // 2


def test_criterion_08_deflation_round_trip():
    with _Clock(8, "deflation round trip and 100 random reconstructions", 60.0):
        for stat in (FERMION, BOSON):
            basis = LevelBasis(3, 2, 4, stat)
            for idx in range(len(basis)):
                assert deflate_sparse(basis.expansion(idx), basis) == {idx: 1}
        rng = random.Random(2024)
        cases = 0
        while cases < 100:
            n = rng.choice([2, 3])
            d = rng.choice([1, 2])
            grade = rng.randrange(n * (n - 1) // 2, 7)
            dim = level_dimension(n, d, grade, FERMION)
            if dim == 0:
                continue
            basis = LevelBasis(n, d, grade, FERMION)
            coeffs = {
                rng.randrange(dim): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(min(dim, 5))
            }
            poly = basis.materialize(coeffs)
            if poly.is_zero:
                continue
            assert basis.materialize(deflate_sparse(poly, basis)) == poly
            cases += 1


def test_criterion_09_coulomb():
    with _Clock(9, "Coulomb: linearization, Beta integrals, quadrature sweeps", 300.0):
        for n in range(7):
            for m in range(7):
                a = hermite_linearization(n, m)
                product = poly_mul(hermite_coefficients(n), hermite_coefficients(m))
                rebuilt = [0] * (n + m + 1)
                for k, ak in enumerate(a):
                    if ak:
                        for i, c in enumerate(hermite_coefficients(k)):
                            rebuilt[i] += ak * c
                assert rebuilt == product
        for l in range(0, 16, 2):
            assert beta_integral_exact(3, l) == (Fraction(1, l + 1), 0)
            assert beta_integral_exact(2, l) == (
                Fraction(math.comb(l, l // 2), 2 ** (l + 1)),
                1,
            )
        per_axis = [
            t for t in itertools.product(range(3), repeat=4) if sum(t) % 2 == 0
        ]
        for d in (2, 3):
            quads = [
                tuple(tuple(c[i] for c in combo) for i in range(4))
                for combo in itertools.product(per_axis, repeat=d)
            ]
            # One stacked call: four (k x d) index arrays give k elements.
            stacked = two_body_element(*np.array(quads).transpose(1, 0, 2))
            for quad, closed in zip(quads, stacked, strict=True):
                oracle = two_body_oracle(*quad)
                if oracle:
                    assert abs(closed - oracle) / abs(oracle) < 1e-6
                else:
                    assert abs(closed) < 1e-9


def test_criterion_10_density_properties():
    with _Clock(10, "density equality, normalization, nodal family", 300.0):
        grid = [Axis("x", -6.0, 6.0, 121), Axis("y", -6.0, 6.0, 121)]
        osc = Realization()
        g0 = fstate([(1, 0), (0, 1), (0, 0)]).expand()
        g12 = fstate([(1, 1), (1, 0), (0, 0)]).expand()
        g14 = fstate([(2, 0), (0, 1), (0, 0)]).expand()
        shape = one_particle_density(state_vector(g12 + g14), osc, grid)
        trivial = one_particle_density(
            state_vector(euler_power(1, 1, 0, 3, 2) * g0), osc, grid
        )
        assert np.max(np.abs(shape.values - trivial.values)) < 1e-8
        for density in (shape, trivial, one_particle_density(state_vector(g0), osc, grid)):
            assert abs(density.riemann_integral() - 3.0) < 1e-6
        single = one_particle_density(
            state_vector(fstate([(0,)]).expand()), osc, [Axis("x", -6, 6, 241)]
        )
        assert abs(single.riemann_integral() - 1.0) < 1e-6
        # nodal family (z1 - z2) * symmetric factor vanishes on z1 = z2
        base = fstate([(0, 0, 1), (0, 0, 0)]).expand()
        rng = np.random.default_rng(8)
        from shapes.polycore import ExactPolynomial

        for factor in (
            ExactPolynomial.constant(2, 3),
            euler_power(1, 1, 0, 2, 3),
            euler_power(1, 1, 2, 2, 3),
        ):
            evaluator = realize_polynomial(base * factor, osc)
            pts = rng.uniform(-2, 2, size=(500, 2, 3))
            pts[:, 1, 2] = pts[:, 0, 2]
            assert np.max(np.abs(evaluator(pts))) < 1e-12


def test_criterion_11_coulomb_separation(tmp_path):
    with _Clock(11, "Coulomb separation of the grade-4 shape from its multiplet", 300.0):
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
        assert len(partners) == 3
        v_shape = coulomb_expectation(shape.coeffs, shape.coeffs, basis)
        lines = [f"shape {shape.id} diagonal {v_shape:.12e}"]
        for label, vec in partners:
            v = coulomb_expectation(vec, vec, basis)
            gap = abs(v - v_shape) / abs(v_shape)
            lines.append(f"trivial {label} diagonal {v:.12e} relative gap {gap:.3e}")
            assert gap > 1e-6
        report = tmp_path / "separation_report.txt"
        report.write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        assert report.exists()
