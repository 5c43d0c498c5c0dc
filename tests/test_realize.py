"""Tests for concrete realizations and density grids."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from shapes.counting import FERMION
from shapes.errors import InternalConsistencyError
from shapes.polycore import ExactPolynomial, SlaterState, euler_power
from shapes.realize import (
    Axis,
    Realization,
    _finalize_density,
    _hermite_functions,
    one_particle_density,
    parse_grid,
    realize_polynomial,
    two_particle_density_cut,
)


def state(orbitals):
    return SlaterState.from_orbitals(orbitals, FERMION)


def hermite_function(k, u):
    """phi_k(u) = H_k(u) exp(-u^2/2) by numpy's Hermite series, independent of shapes."""
    return hermval(u, [0] * k + [1]) * np.exp(-(u**2) / 2.0)


G0 = state([(1, 0), (0, 1), (0, 0)]).expand()
G12 = state([(1, 1), (1, 0), (0, 0)]).expand()
G14 = state([(2, 0), (0, 1), (0, 0)]).expand()
S12 = G12 + G14
E1T_G0 = euler_power(1, 1, 0, 3, 2) * G0


class TestEvaluator:
    def test_first_hermite(self):
        poly = ExactPolynomial.variable(1, 1, 0, 0)
        f = realize_polynomial(poly, Realization())
        xs = np.linspace(-2.0, 2.0, 9).reshape(-1, 1, 1)
        expected = 2 * xs[:, 0, 0] * np.exp(-xs[:, 0, 0] ** 2 / 2)
        assert np.allclose(f(xs), expected, atol=1e-14)

    def test_constant_is_gaussian_product(self):
        poly = ExactPolynomial.constant(2, 1)
        f = realize_polynomial(poly, Realization())
        pts = np.array([[[0.3], [1.1]]])
        assert np.allclose(f(pts), np.exp(-(0.3**2 + 1.1**2) / 2))

    def test_antisymmetry_under_swap(self):
        poly = SlaterState.from_orbitals([(1, 0), (0, 1)], FERMION).expand()  # t1 u2 - u1 t2
        f = realize_polynomial(poly, Realization())
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 2, 2))
        swapped = pts[:, ::-1, :]
        assert np.allclose(f(pts), -f(swapped), atol=1e-13)

    def test_length_scale(self):
        poly = ExactPolynomial.variable(1, 1, 0, 0)
        f = realize_polynomial(poly, Realization(length_scale=2.0))
        xs = np.array([[[1.0]]])
        assert np.allclose(f(xs), 2 * 0.5 * np.exp(-0.25 / 2))

    @pytest.mark.parametrize("length_scale", [1.0, 2.0])
    def test_single_orbital_states_match_hermval(self, length_scale):
        xs = np.linspace(-8.0, 8.0, 161)
        ys = np.linspace(5.0, -3.0, 161)
        points = np.stack([xs, ys], axis=-1)[:, None, :]
        u, v = xs / length_scale, ys / length_scale
        for k in range(31):
            poly = SlaterState.from_orbitals([(k, 30 - k)], FERMION).expand()
            values = realize_polynomial(poly, Realization(length_scale))(points)
            reference = hermite_function(k, u) * hermite_function(30 - k, v)
            scale = np.abs(reference).max()
            assert np.allclose(values, reference, rtol=1e-12, atol=1e-14 * scale)

    def test_shape_check(self):
        poly = ExactPolynomial.constant(2, 2)
        f = realize_polynomial(poly, Realization())
        with pytest.raises(ValueError):
            f(np.zeros((3, 1, 2)))


class TestGridParsing:
    def test_parse(self):
        axes = parse_grid("x:-4:4:81,y:-4:4:81")
        assert [a.name for a in axes] == ["x", "y"]
        assert axes[0].count == 81
        assert axes[0].step == pytest.approx(0.1)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_grid("x:-4:4")

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            Axis("x", 1.0, -1.0, 10)


GRID2 = [Axis("x", -6.0, 6.0, 121), Axis("y", -6.0, 6.0, 121)]


class TestOneParticleDensity:
    def test_single_particle_gaussian(self):
        poly = ExactPolynomial.constant(1, 1)
        grid = one_particle_density(poly, Realization(), [Axis("x", -6, 6, 241)])
        assert grid.riemann_integral() == pytest.approx(1.0, abs=1e-9)
        xs = grid.axes[0].points()
        assert np.allclose(
            grid.values, np.exp(-(xs**2)) / math.sqrt(math.pi), atol=1e-12
        )

    def test_ground_state_integral_three(self):
        grid = one_particle_density(G0, Realization(), GRID2)
        assert grid.normalization == 3.0
        assert grid.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_same_density_for_shape_and_trivial_partner(self):
        # Cross terms between determinants differing in two orbitals vanish
        # when all but one particle is integrated out, so S12 = g12 + g14 and
        # e1(t) g0 = -g12 + g14 share their one-particle density.
        rho_shape = one_particle_density(S12, Realization(), GRID2)
        rho_trivial = one_particle_density(E1T_G0, Realization(), GRID2)
        assert np.max(np.abs(rho_shape.values - rho_trivial.values)) < 1e-8
        assert rho_shape.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_orbital_index_above_39(self):
        poly = SlaterState.from_orbitals([(41,), (40,)], FERMION).expand()
        grid = one_particle_density(
            poly, Realization(), [Axis("x", -14, 14, 1401)]
        )
        assert grid.riemann_integral() == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("k", [160, 200])
    def test_high_orbital_index_neither_underflows_nor_overflows(self, k):
        poly = SlaterState.from_orbitals([(k + 1,), (k,)], FERMION).expand()
        grid = one_particle_density(
            poly, Realization(), [Axis("x", -25, 25, 2001)]
        )
        assert grid.riemann_integral() == pytest.approx(2.0, abs=1e-6)

    def test_normalized_recurrence_matches_hermval(self):
        u = np.linspace(-8.0, 8.0, 161)
        table = _hermite_functions(30, u)
        for k, psi in enumerate(table):
            norm = math.sqrt(2**k * math.factorial(k) * math.sqrt(math.pi))
            reference = hermite_function(k, u) / norm
            assert np.allclose(psi, reference, rtol=1e-12, atol=1e-14)

    def test_non_finite_values_are_named(self):
        with pytest.raises(InternalConsistencyError, match="non-finite"):
            _finalize_density([Axis("x", -1, 1, 3)], np.array([0.1, np.nan, 0.1]), 1.0)

    def test_values_non_negative(self):
        grid = one_particle_density(S12, Realization(), GRID2)
        assert grid.values.min() >= 0.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            one_particle_density(
                ExactPolynomial.zero(2, 2), Realization(), GRID2
            )

    def test_length_scale_preserves_normalization(self):
        axes = [Axis("x", -9, 9, 181), Axis("y", -9, 9, 181)]
        grid = one_particle_density(G0, Realization(length_scale=1.5), axes)
        assert grid.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_first_excited_shape_factorizes_into_1d_profile(self):
        # S11 = |t1^2, t2, 1| puts all transverse excitation to zero: its
        # density is the one-dimensional three-fermion ground-state profile
        # along x times a bare Gaussian along y.
        from shapes.polycore import vandermonde

        s11 = state([(2, 0), (1, 0), (0, 0)]).expand()
        rho2d = one_particle_density(s11, Realization(), GRID2)
        rho1d = one_particle_density(
            vandermonde(3), Realization(), [GRID2[0]]
        )
        ys = GRID2[1].points()
        expected = np.outer(rho1d.values, np.exp(-(ys**2)) / math.sqrt(math.pi))
        assert np.max(np.abs(rho2d.values - expected)) < 1e-10

    def test_axis_swapped_shapes_are_rotated_densities(self):
        # |u1^2, u2, 1| is |t1^2, t2, 1| with the axes relabeled, so its
        # density is the transpose on a square grid.
        s11 = state([(2, 0), (1, 0), (0, 0)]).expand()
        s14 = state([(0, 2), (0, 1), (0, 0)]).expand()
        rho_a = one_particle_density(s11, Realization(), GRID2)
        rho_b = one_particle_density(s14, Realization(), GRID2)
        assert np.max(np.abs(rho_a.values - rho_b.values.T)) < 1e-12


class TestTwoParticleCut:
    def test_shape_and_trivial_partner_differ(self):
        cut_shape = two_particle_density_cut(S12, Realization(), GRID2)
        cut_trivial = two_particle_density_cut(E1T_G0, Realization(), GRID2)
        scale = cut_shape.values.max()
        assert np.max(np.abs(cut_shape.values - cut_trivial.values)) > 1e-3 * scale

    def test_pauli_node_on_coincidence(self):
        # On the diagonal cut x (particle 1) equals y (particle 2) means the
        # full coordinates coincide, so the antisymmetric density vanishes.
        cut = two_particle_density_cut(G0, Realization(), GRID2)
        diagonal = np.diagonal(cut.values)
        assert np.max(np.abs(diagonal)) < 1e-12

    def test_normalization_field_matches_integral(self):
        cut = two_particle_density_cut(G0, Realization(), GRID2)
        assert cut.normalization == pytest.approx(cut.riemann_integral())


class TestNodeSurfaces:
    def test_two_particle_3d_family_vanishes_on_z_coincidence(self):
        # (v1 - v2) times symmetric factors vanishes identically on z1 = z2.
        base = state([(0, 0, 1), (0, 0, 0)]).expand()
        factors = [
            ExactPolynomial.constant(2, 3),
            euler_power(1, 1, 0, 2, 3),
            euler_power(1, 1, 1, 2, 3) * euler_power(1, 1, 2, 2, 3),
        ]
        rng = np.random.default_rng(11)
        for factor in factors:
            f = realize_polynomial(base * factor, Realization())
            pts = rng.uniform(-2, 2, size=(200, 2, 3))
            pts[:, 1, 2] = pts[:, 0, 2]  # z1 = z2
            assert np.max(np.abs(f(pts))) < 1e-12


class TestDensityGridIO:
    def test_csv_and_metadata(self, tmp_path):
        grid = one_particle_density(
            G0, Realization(), [Axis("x", -4, 4, 11), Axis("y", -4, 4, 11)]
        )
        csv_path = tmp_path / "rho.csv"
        grid.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 11 * 11
        meta_path = tmp_path / "rho.csv.json"
        grid.write_metadata(meta_path)
        import json

        meta = json.loads(meta_path.read_text())
        assert meta["normalization"] == 3.0
        assert meta["axes"][0]["count"] == 11
