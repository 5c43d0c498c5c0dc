"""Tests for concrete realizations and density grids."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from density_oracle import oracle_csv, oracle_samples, oracle_weights, state_vector
from shapes import polycore, realize
from shapes.counting import BOSON, FERMION
from shapes.deflation import LevelBasis, StateVector
from shapes.errors import InternalConsistencyError
from shapes.polycore import ExactPolynomial, SlaterState, euler_power
from shapes.shapegen import generate_shapes
from shapes.realize import (
    Axis,
    DensityGrid,
    Realization,
    _finalize_density,
    _hermite_functions,
    _reduced_density_weights,
    _sample_density,
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
        grid = one_particle_density(state_vector(poly), Realization(), [Axis("x", -6, 6, 241)])
        assert grid.riemann_integral() == pytest.approx(1.0, abs=1e-9)
        xs = grid.axes[0].points()
        assert np.allclose(
            grid.values, np.exp(-(xs**2)) / math.sqrt(math.pi), atol=1e-12
        )

    def test_ground_state_integral_three(self):
        grid = one_particle_density(state_vector(G0), Realization(), GRID2)
        assert grid.normalization == 3.0
        assert grid.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_same_density_for_shape_and_trivial_partner(self):
        # Cross terms between determinants differing in two orbitals vanish
        # when all but one particle is integrated out, so S12 = g12 + g14 and
        # e1(t) g0 = -g12 + g14 share their one-particle density.
        rho_shape = one_particle_density(state_vector(S12), Realization(), GRID2)
        rho_trivial = one_particle_density(state_vector(E1T_G0), Realization(), GRID2)
        assert np.max(np.abs(rho_shape.values - rho_trivial.values)) < 1e-8
        assert rho_shape.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_orbital_index_above_39(self):
        poly = SlaterState.from_orbitals([(41,), (40,)], FERMION).expand()
        grid = one_particle_density(
            state_vector(poly), Realization(), [Axis("x", -14, 14, 1401)]
        )
        assert grid.riemann_integral() == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("k", [160, 200])
    def test_high_orbital_index_neither_underflows_nor_overflows(self, k):
        poly = SlaterState.from_orbitals([(k + 1,), (k,)], FERMION).expand()
        grid = one_particle_density(
            state_vector(poly), Realization(), [Axis("x", -25, 25, 2001)]
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
        grid = one_particle_density(state_vector(S12), Realization(), GRID2)
        assert grid.values.min() >= 0.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            one_particle_density(StateVector(LevelBasis(2, 2, 1), {}), Realization(), GRID2)

    def test_length_scale_preserves_normalization(self):
        axes = [Axis("x", -9, 9, 181), Axis("y", -9, 9, 181)]
        grid = one_particle_density(state_vector(G0), Realization(length_scale=1.5), axes)
        assert grid.riemann_integral() == pytest.approx(3.0, abs=1e-6)

    def test_first_excited_shape_factorizes_into_1d_profile(self):
        # S11 = |t1^2, t2, 1| puts all transverse excitation to zero: its
        # density is the one-dimensional three-fermion ground-state profile
        # along x times a bare Gaussian along y.
        from shapes.polycore import vandermonde

        s11 = state([(2, 0), (1, 0), (0, 0)]).expand()
        rho2d = one_particle_density(state_vector(s11), Realization(), GRID2)
        rho1d = one_particle_density(
            state_vector(vandermonde(3)), Realization(), [GRID2[0]]
        )
        ys = GRID2[1].points()
        expected = np.outer(rho1d.values, np.exp(-(ys**2)) / math.sqrt(math.pi))
        assert np.max(np.abs(rho2d.values - expected)) < 1e-10

    def test_axis_swapped_shapes_are_rotated_densities(self):
        # |u1^2, u2, 1| is |t1^2, t2, 1| with the axes relabeled, so its
        # density is the transpose on a square grid.
        s11 = state([(2, 0), (1, 0), (0, 0)]).expand()
        s14 = state([(0, 2), (0, 1), (0, 0)]).expand()
        rho_a = one_particle_density(state_vector(s11), Realization(), GRID2)
        rho_b = one_particle_density(state_vector(s14), Realization(), GRID2)
        assert np.max(np.abs(rho_a.values - rho_b.values.T)) < 1e-12


class TestTwoParticleCut:
    def test_shape_and_trivial_partner_differ(self):
        cut_shape = two_particle_density_cut(state_vector(S12), Realization(), GRID2)
        cut_trivial = two_particle_density_cut(state_vector(E1T_G0), Realization(), GRID2)
        scale = cut_shape.values.max()
        assert np.max(np.abs(cut_shape.values - cut_trivial.values)) > 1e-3 * scale

    def test_pauli_node_on_coincidence(self):
        # On the diagonal cut x (particle 1) equals y (particle 2) means the
        # full coordinates coincide, so the antisymmetric density vanishes.
        cut = two_particle_density_cut(state_vector(G0), Realization(), GRID2)
        diagonal = np.diagonal(cut.values)
        assert np.max(np.abs(diagonal)) < 1e-12

    def test_normalization_field_matches_integral(self):
        cut = two_particle_density_cut(state_vector(G0), Realization(), GRID2)
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
            state_vector(G0), Realization(), [Axis("x", -4, 4, 11), Axis("y", -4, 4, 11)]
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


def _two_state_mixture(rows_a, rows_b, stat, factor=None):
    """S_a + 2 S_b, times an optional factor: a state with cross pairs."""
    poly = (
        SlaterState.from_orbitals(rows_a, stat).expand()
        + SlaterState.from_orbitals(rows_b, stat).expand() * 2
    )
    return poly if factor is None else poly * factor


# (rows of S_a, rows of S_b, factor) per dimension; d = 1 reaches index 42.
# In d = 2 and 3 the two states differ in one orbital, so the one-particle
# weights pair different rows.
MIXTURES = {
    1: ([(41,), (40,), (2,)], [(42,), (40,), (1,)], None),
    2: ([(2, 0), (0, 1), (0, 0)], [(1, 1), (0, 1), (0, 0)], euler_power(1, 1, 0, 3, 2)),
    3: (
        [(1, 0, 0), (0, 1, 0), (0, 0, 0)],
        [(0, 0, 1), (1, 0, 0), (0, 0, 0)],
        euler_power(1, 1, 2, 3, 3),
    ),
}
# Axis counts differ, so a factor on the wrong axis cannot pass.
ORACLE_AXES = {
    1: [Axis("x", -15, 15, 241)],
    2: [Axis("x", -6, 6, 31), Axis("y", -5, 7, 27)],
    3: [Axis("x", -5, 5, 11), Axis("y", -4, 6, 13), Axis("z", -5, 4, 9)],
}
# (kind, d): the one-particle density in d = 1, 2, 3 and the cut in 2, 3.
ORACLE_CASES = [("one", 1), ("one", 2), ("one", 3), ("cut", 2), ("cut", 3)]


def _oracle_case(kind, d, stat):
    rows_a, rows_b, factor = MIXTURES[d]
    state = state_vector(_two_state_mixture(rows_a, rows_b, stat, factor), stat)
    if kind == "one":
        return state, ORACLE_AXES[d], [range(d)]
    return state, ORACLE_AXES[2], [(0,) * d, (1,) * d]


def _polynomial(state):
    return state.basis.materialize(state.terms)


@pytest.mark.parametrize("stat", [FERMION, BOSON], ids=["fermion", "boson"])
@pytest.mark.parametrize("kind, d", ORACLE_CASES, ids=lambda v: str(v))
class TestDensityKernelOracle:
    """The state-basis kernel against the pair-by-pair Fraction reference
    over the state's monomials."""

    def test_weights_are_byte_identical(self, kind, d, stat):
        state, _axes, drivers = _oracle_case(kind, d, stat)
        weights = _reduced_density_weights(state, len(drivers))
        assert weights == oracle_weights(_polynomial(state), len(drivers))
        # In one dimension a particle's index is fixed by the grade and
        # the spectators' indices, so only there are all pairs diagonal.
        assert any(bra != ket for bra, ket in weights) == ((kind, d) != ("one", 1))

    def test_samples_match_the_pair_sum(self, kind, d, stat):
        state, axes, drivers = _oracle_case(kind, d, stat)
        realization = Realization(length_scale=1.5)
        values = _sample_density(state, realization, axes, drivers)
        reference = oracle_samples(_polynomial(state), realization, axes, drivers)
        assert values.shape == tuple(axis.count for axis in axes)
        scale = np.abs(reference).max()
        assert scale > 0
        assert np.max(np.abs(values - reference)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def sweep_catalogs():
    """The catalogs whose every shape the weights are swept over."""
    return [
        generate_shapes(3, 3, FERMION),
        generate_shapes(3, 2, BOSON),
        generate_shapes(4, 2, BOSON),
    ]


@pytest.mark.parametrize("retained", [1, 2])
def test_weights_of_every_shape_match_the_monomial_route(sweep_catalogs, retained):
    """Every shape of (3,3,f), (3,2,b) and (4,2,b): the weights from the
    states' rests equal those from the expanded monomials."""
    for catalog in sweep_catalogs:
        for shape in catalog.shapes:
            state = StateVector(catalog.level_basis(shape.grade), shape.coeffs)
            expected = oracle_weights(_polynomial(state), retained)
            assert _reduced_density_weights(state, retained) == expected, shape.id


def test_chunked_pair_sum_matches_one_chunk(monkeypatch):
    """A d = 3 one-particle density whose pairs span several chunks."""
    state, axes, drivers = _oracle_case("one", 3, FERMION)
    realization = Realization(length_scale=1.5)
    whole = _sample_density(state, realization, axes, drivers)
    pairs = len(_reduced_density_weights(state, 1))
    steps = []

    def recorded(row_bytes):
        steps.append(polycore.chunk_rows(row_bytes))
        return steps[-1]

    monkeypatch.setattr(realize, "chunk_rows", recorded)
    monkeypatch.setattr(polycore, "CHUNK_BYTES", 8 * 11 * 13 * 9 * 2)  # two pairs a chunk
    chunked = _sample_density(state, realization, axes, drivers)
    assert steps == [2] and pairs >= 5
    reference = oracle_samples(_polynomial(state), realization, axes, drivers)
    scale = np.abs(whole).max()
    assert np.max(np.abs(chunked - whole)) <= 1e-12 * scale
    assert np.max(np.abs(chunked - reference)) <= 1e-12 * scale


def test_rounding_noise_is_written_as_zero():
    """On the Pauli nodes of the cut, x = y, every sample is noise: it is 0,
    while a sample above its rounding bound is kept."""
    cut = _sample_density(state_vector(G0), Realization(), GRID2, [(0, 0), (1, 1)])
    assert (np.diagonal(cut) == 0.0).all()
    assert (cut[np.triu_indices(len(cut), 1)] != 0.0).any()


CSV_GRIDS = [
    [Axis("x", -1, 1, 5)],
    [Axis('a"b', -4, 4, 3), Axis("y", 0, 2.5, 4)],
    [Axis("x", -1, 1, 2), Axis("y", -1e-3, 2e5, 3), Axis("z", -7, 7, 4)],
]


class TestDensityCsv:
    @pytest.mark.parametrize("axes", CSV_GRIDS, ids=["1-axis", "2-axis-quoted-name", "3-axis"])
    def test_bytes_match_the_row_writer(self, tmp_path, axes):
        rng = np.random.default_rng(len(axes))
        values = rng.random([axis.count for axis in axes]) * 10.0 ** rng.integers(
            -300, 300, [axis.count for axis in axes]
        )
        values.flat[::3] = 0.0  # exact zeros, as the Pauli nodes give
        grid = DensityGrid(axes, values, normalization=1.0)
        grid.write_csv(tmp_path / "fast.csv")
        oracle_csv(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

