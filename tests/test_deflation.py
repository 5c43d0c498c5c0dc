"""Tests for the deflation algorithm over level bases."""

import ast
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shapes import deflation
from shapes.counting import BOSON, FERMION, shape_polynomial
from shapes.deflation import LevelBasis, deflate_sparse
from shapes.errors import InternalConsistencyError, StateCapExceeded
from shapes.polycore import (
    ExactPolynomial,
    SlaterState,
    enumerate_euler_monomials,
    euler_power,
    multiplicity_factorials,
    sector_of,
    vandermonde,
)
from shapes.schur import schur_expand
from shapes.products import trivial_products
from shapes.shapegen import ShapeCatalog, ShapeRecord


def state(orbitals, stat=FERMION):
    return SlaterState.from_orbitals(orbitals, stat)


@pytest.fixture(scope="module")
def basis_32_3():
    return LevelBasis(3, 2, 3, FERMION)


class TestLevelBasis:
    def test_dimension_cross_check(self, basis_32_3):
        assert len(basis_32_3) == 6

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            LevelBasis(3, 3, 9, FERMION, max_states=1000)

    def test_materialize_unit_vector(self, basis_32_3):
        poly = basis_32_3.materialize({2: 1})
        assert poly == state(basis_32_3.orbitals(2)).expand()

    def test_boson_leading_coefficients(self):
        basis = LevelBasis(3, 1, 0, BOSON)
        assert multiplicity_factorials(basis.orbitals(0)) == 6  # all three orbitals equal

    @pytest.mark.parametrize(
        "n, d, grade, stat", [(3, 2, 4, FERMION), (3, 3, 5, BOSON), (4, 1, 9, BOSON)]
    )
    def test_states_are_their_canonical_orbital_tuples(self, n, d, grade, stat):
        basis = LevelBasis(n, d, grade, stat)
        identity = [list(range(len(basis))), [1] * len(basis)]
        assert [a.tolist() for a in basis.locate_signed(basis.code_array)] == identity
        assert basis.code_array.dtype == np.int32 and basis.code_array.shape == (len(basis), n)
        for i, s in enumerate(basis.code_array.tolist()):
            assert basis.locate(basis.orbitals(i)) == i
            orbitals = basis.orbitals(i)
            assert [basis.codes.index[o] for o in orbitals] == s
            assert SlaterState.from_orbitals(orbitals, stat).orbitals == orbitals

    @pytest.mark.parametrize("n, d, grade, stat", [(3, 2, 4, FERMION), (3, 3, 5, BOSON)])
    def test_sectors_partition_the_states_by_axis_degrees(self, n, d, grade, stat):
        basis = LevelBasis(n, d, grade, stat)
        seen = []
        for sector, indices in basis.sectors.items():
            assert list(indices) == sorted(indices)
            for i in indices:
                orbitals = basis.orbitals(i)
                assert sector == tuple(sum(orb[a] for orb in orbitals) for a in range(d))
                assert sector_of(basis.orbitals(i)) == sector
            seen.extend(indices)
        assert sorted(seen) == list(range(len(basis)))

    @pytest.mark.parametrize(
        "n, d, grade, stat",
        [
            (3, 2, 4, FERMION), (3, 3, 5, BOSON), (4, 2, 9, BOSON), (2, 3, 6, FERMION),
            (2, 3, 0, FERMION),
        ],
    )
    def test_sectors_match_the_per_state_loop(self, n, d, grade, stat):
        # Keys are tuples of Python ints in the order of their first states;
        # values are ascending int32 slices that partition the states.
        basis = LevelBasis(n, d, grade, stat)
        expected = {}
        for i in range(len(basis)):
            expected.setdefault(sector_of(basis.orbitals(i)), []).append(i)
        assert [(s, v.tolist()) for s, v in basis.sectors.items()] == list(expected.items())
        assert all(type(x) is int for s in basis.sectors for x in s)
        slices = list(basis.sectors.values())
        assert all(v.dtype == np.int32 and (np.diff(v) > 0).all() for v in slices)
        joined = np.sort(np.concatenate(slices)) if slices else np.empty(0, dtype=np.int32)
        assert joined.tolist() == list(range(len(basis)))
        for sector, indices in basis.sectors.items():
            assert (basis.state_sectors(indices) == sector).all()

    def test_sectors_take_a_few_bytes_per_state(self):
        # One int32 per state and one array view per sector; Python-int
        # tuples took about 49 bytes per state at this level.
        basis = LevelBasis(3, 4, 10, FERMION)
        basis.state_sectors(slice(0))  # the per-code degree table is not the sectors'
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sectors = basis.sectors
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, sectors.values())) == len(basis) > 10_000
        assert added <= 8 * len(basis)

    def test_the_level_basis_imports_no_realization(self):
        # The level sits below the densities and Coulomb, which read its
        # code array: its module imports neither, so no cycle comes back.
        tree = ast.parse(Path(deflation.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
        assert ".polycore" in imported
        assert not [name for name in imported if {"coulomb", "realize"} & {*name.split(".")}]

    def test_no_module_imports_another_modules_private_name(self):
        # A helper shared between modules is public in the module that owns
        # it: no module of the package imports an underscore name from another.
        private = []
        for path in sorted(Path(deflation.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private += [
                        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert not private

    def test_only_products_locates_mapped_rows(self):
        # One route carries state rows through a code map and locates them
        # (products.apply_maps): no other module calls locate_signed.
        callers = set()
        for path in sorted(Path(deflation.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "locate_signed":
                        callers.add(path.name)
        assert callers == {"products.py"}

    def test_products_decodes_no_orbitals(self):
        # Generation reads states as codes: a shape's sector is summed from
        # its lowest state's codes (LevelBasis.state_sectors), not decoded.
        tree = ast.parse(Path(deflation.__file__).with_name("products.py").read_text())
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(getattr(func, "attr", getattr(func, "id", None)))
        assert called and not called & {"decode", "orbitals", "sector_of"}


class TestDeflate:
    def test_first_level_trivial_state_t_axis(self, basis_32_3):
        g0 = state([(1, 0), (0, 1), (0, 0)]).expand()
        vec = deflate_sparse(euler_power(1, 1, 0, 3, 2) * g0, basis_32_3)
        g12 = basis_32_3.locate(state([(1, 1), (1, 0), (0, 0)]).orbitals)
        g14 = basis_32_3.locate(state([(2, 0), (0, 1), (0, 0)]).orbitals)
        assert vec == {g12: -1, g14: 1}

    def test_first_level_trivial_state_u_axis(self, basis_32_3):
        g0 = state([(1, 0), (0, 1), (0, 0)]).expand()
        vec = deflate_sparse(euler_power(1, 1, 1, 3, 2) * g0, basis_32_3)
        g13 = basis_32_3.locate(state([(0, 2), (1, 0), (0, 0)]).orbitals)
        g15 = basis_32_3.locate(state([(1, 1), (0, 1), (0, 0)]).orbitals)
        assert vec == {g13: -1, g15: 1}

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_basis_round_trip(self, stat):
        basis = LevelBasis(3, 2, 4, stat)
        for idx in range(len(basis)):
            assert deflate_sparse(basis.expansion(idx), basis) == {idx: 1}

    def test_linearity_on_random_combinations(self):
        rng = random.Random(23)
        basis = LevelBasis(3, 2, 5, FERMION)
        for _ in range(20):
            coeffs_a = {
                rng.randrange(len(basis)): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(4)
            }
            coeffs_b = {
                rng.randrange(len(basis)): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(4)
            }
            pa, pb = basis.materialize(coeffs_a), basis.materialize(coeffs_b)
            alpha, beta = Fraction(2, 3), Fraction(-5)
            left = deflate_sparse(alpha * pa + beta * pb, basis)
            va, vb = deflate_sparse(pa, basis), deflate_sparse(pb, basis)
            right = {i: alpha * va.get(i, 0) + beta * vb.get(i, 0) for i in va.keys() | vb.keys()}
            assert left == {i: c for i, c in right.items() if c}

    def test_outside_span_reports_leading_monomial(self, basis_32_3):
        # t1^2 t2 alone is not antisymmetric
        bad = ExactPolynomial(3, 2, {(2, 0, 1, 0, 0, 0): 1})
        with pytest.raises(InternalConsistencyError, match="leading monomial"):
            deflate_sparse(bad, basis_32_3)

    def test_symmetric_polynomial_not_in_fermion_span(self, basis_32_3):
        sym = euler_power(1, 1, 0, 3, 2) * euler_power(1, 2, 1, 3, 2)
        with pytest.raises(InternalConsistencyError):
            deflate_sparse(sym, basis_32_3)

    def test_wrong_grade_rejected(self, basis_32_3):
        with pytest.raises(ValueError):
            deflate_sparse(ExactPolynomial.constant(3, 2), basis_32_3)

    def test_zero_polynomial(self, basis_32_3):
        assert deflate_sparse(ExactPolynomial.zero(3, 2), basis_32_3) == {}

    def test_exactness_of_reconstruction(self):
        rng = random.Random(5)
        basis = LevelBasis(3, 2, 6, FERMION)
        coeffs = {
            rng.randrange(len(basis)): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(6)
        }
        poly = basis.materialize(coeffs)
        assert basis.materialize(deflate_sparse(poly, basis)) == poly


SYSTEMS = [(n, d, stat) for n in (2, 3, 4) for d in (1, 2, 3) for stat in (FERMION, BOSON)]

coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=5)
).filter(bool)


def one_shape_catalog(n, d, stat, grade, coeffs):
    return ShapeCatalog(
        n=n,
        d=d,
        statistics=stat,
        shape_poly=shape_polynomial(n, d, stat),
        max_grade=grade,
        shapes=[ShapeRecord(grade=grade, index=0, coeffs=coeffs)],
    )


@st.composite
def level_vectors(draw):
    """A level basis and a sparse exact vector over it.

    Boson vectors always include a state with repeated orbitals when the
    level has one.
    """
    n, d, stat = draw(st.sampled_from(SYSTEMS))
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 2))
    basis = LevelBasis(n, d, grade, stat)
    support = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=4))
    repeated = [i for i, s in enumerate(basis.code_array.tolist()) if len(set(s)) < n]
    if repeated:
        support.append(draw(st.sampled_from(repeated)))
    return basis, {i: draw(coefficients) for i in support}


class TestDeflateProperties:
    @settings(max_examples=60, deadline=None)
    @given(level_vectors())
    def test_round_trip(self, case):
        basis, vec = case
        assert deflate_sparse(basis.materialize(vec), basis) == vec

    @settings(max_examples=60, deadline=None)
    @given(level_vectors(), st.one_of(st.none(), coefficients), st.data())
    def test_perturbed_monomial_is_outside_span(self, case, delta, data):
        # Drop one monomial (delta None) or shift its coefficient by delta.
        # Only a monomial of a state with more than one monomial breaks the
        # span: a single-monomial state rescaled is still a state.
        basis, vec = case
        terms = dict(basis.materialize(vec).terms)
        candidates = [
            m for i in vec for m in basis.expansion(i).terms
            if len(basis.expansion(i).terms) > 1
        ]
        assume(candidates)
        mono = data.draw(st.sampled_from(candidates))
        if delta is None:
            del terms[mono]
        else:
            terms[mono] += delta
        bad = ExactPolynomial(basis.n, basis.d, terms)
        with pytest.raises(InternalConsistencyError, match="leading monomial"):
            deflate_sparse(bad, basis)


@st.composite
def product_cases(draw):
    n, d, stat = draw(st.sampled_from(SYSTEMS))
    grade = shape_polynomial(n, d, stat).lowest_degree() + draw(st.integers(0, 2))
    size = len(LevelBasis(n, d, grade, stat))
    support = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))
    # Products are integer vectors, as ShapeRecord's coefficients are.
    coeffs = {i: draw(st.integers(-6, 6).filter(bool)) for i in support}
    degree = draw(st.integers(0, 3))
    euler = draw(st.sampled_from(enumerate_euler_monomials(n, d, degree)))
    return one_shape_catalog(n, d, stat, grade, coeffs), euler


class TestTrivialProducts:
    @settings(max_examples=60, deadline=None)
    @given(product_cases())
    def test_matches_expand_then_deflate(self, case):
        catalog, euler = case
        (rec,) = catalog.shapes
        grade = rec.grade + euler.degree
        products = list(trivial_products(catalog, grade))
        assert [e for _, e, _ in products] == enumerate_euler_monomials(
            catalog.n, catalog.d, euler.degree
        )
        (vec,) = [v for _, e, v in products if e == euler]
        spoly = catalog.level_basis(rec.grade).materialize(rec.coeffs)
        assert vec == deflate_sparse(spoly * euler.materialize(), catalog.level_basis(grade))

    def test_grade_mismatch(self):
        # A shape above the target grade has no product there; every product
        # that is yielded lands exactly on the target grade.
        catalog = one_shape_catalog(3, 2, FERMION, 4, {0: 1})
        assert list(trivial_products(catalog, 3)) == []
        for rec, euler, _ in trivial_products(catalog, 6):
            assert rec.grade + euler.degree == 6

    def test_empty_euler_monomial_is_identity(self):
        catalog = one_shape_catalog(3, 2, FERMION, 3, {0: 1, 4: -2})
        ((rec, euler, vec),) = trivial_products(catalog, 3)
        assert euler.degree == 0
        assert vec == rec.coeffs

    @pytest.mark.parametrize("coeff", [Fraction(-2, 3), Fraction(4), 1.0])
    def test_a_shape_coefficient_that_is_not_an_int_is_refused(self, coeff):
        # An array of Fractions cast to integers would truncate them.
        catalog = one_shape_catalog(3, 2, FERMION, 3, {0: 1, 4: coeff})
        with pytest.raises(ValueError, match="coefficients are integers"):
            list(trivial_products(catalog, 5))


class TestOneDimensionalConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_schur_expansion(self, seed):
        # Deflating (Euler monomial) * Delta over the 1D fermion basis must
        # agree with the Schur expansion of the Euler monomial: the state
        # with orbitals lambda_i + (n - i) picks up the coefficient of
        # s_lambda.
        rng = random.Random(seed)
        n = 3
        monos = enumerate_euler_monomials(n, 1, rng.randrange(2, 6))
        euler = monos[rng.randrange(len(monos))]
        phi = euler.materialize()
        psi = phi * vandermonde(n)
        basis = LevelBasis(n, 1, psi.grade(), FERMION)
        vec = deflate_sparse(psi, basis)
        expansion = schur_expand(phi)
        expected = {}
        for lam, coeff in expansion.items():
            padded = lam.padded(n)
            orbitals = [(padded[i] + n - 1 - i,) for i in range(n)]
            expected[basis.locate(state(orbitals).orbitals)] = coeff
        assert vec == expected
