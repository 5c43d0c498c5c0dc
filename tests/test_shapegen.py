"""Tests for shape generation, complements, and span verification."""

import json
import re
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from shapes.counting import (
    BOSON,
    FERMION,
    sector_shape_counts,
    shape_polynomial,
    total_shape_count,
)
from shapes.deflation import LevelBasis, deflate_sparse
from shapes import shapegen
from shapes.errors import InternalConsistencyError, StateCapExceeded
from shapes.polycore import SlaterState, enumerate_euler_monomials
from shapes.shapegen import (
    ShapeCatalog,
    _Echelon,
    generate_shapes,
    trivial_products,
    verify_span,
)

from poly_helpers import swap_particles


def rref(vectors, dim):
    """Row-reduced echelon form over exact rationals, for subspace equality."""
    rows = [[Fraction(v[i] if isinstance(v, (list, tuple)) else v.get(i, 0)) for i in range(dim)] for v in vectors]
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
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows[:pivot_row]]


def with_duplicate(sector_blocks):
    """Wrap shapegen._sector_blocks to repeat one product per grade.

    The first product of the first sector that has any is yielded twice.
    """

    def blocks(catalog, grade):
        rest = sector_blocks(catalog, grade)
        for sector, products in rest:
            if products:
                yield sector, products + products[:1]
                break
            yield sector, products
        yield from rest

    return blocks


@pytest.fixture(scope="module")
def catalog_32():
    return generate_shapes(3, 2, FERMION)


@pytest.fixture(scope="module")
def catalog_23():
    return generate_shapes(2, 3, FERMION)


class TestOrthogonalComplement:
    """The complement of a span is the nullspace of its _Echelon."""

    def test_plane_in_two_dims(self):
        ech = _Echelon(2)
        ech.insert({0: -1, 1: 1})
        assert ech.nullspace() == [{0: 1, 1: 1}]

    def test_empty_span_gives_standard_basis(self):
        assert _Echelon(3).nullspace() == [{0: 1}, {1: 1}, {2: 1}]

    def test_dimension_law(self):
        vectors = [{0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}, {0: 1, 1: 3, 2: 1, 3: 1}]  # rank 2
        ech = _Echelon(4)
        assert [ech.insert(v) for v in vectors] == [0, 1, None]
        comp = ech.nullspace()
        assert len(comp) == 2
        for w in comp:
            for v in vectors:
                assert sum(c * w.get(i, 0) for i, c in v.items()) == 0

    def test_canonical_normalization(self):
        ech = _Echelon(2)
        ech.insert({0: 2, 1: -4})
        assert ech.nullspace() == [{0: 2, 1: 1}]

    def test_sparse_dict_input(self):
        # Rational entries are scaled to integers as the row is stored.
        ech = _Echelon(2)
        ech.insert({0: Fraction(-1, 2), 1: Fraction(1, 2)})
        assert ech.rows == {0: {0: 1, 1: -1}}
        assert ech.nullspace() == [{0: 1, 1: 1}]


def canonical(vec):
    """A sparse rational vector scaled to integers, content 1, first nonzero positive."""
    vec = {i: Fraction(c) for i, c in vec.items() if c}
    if not vec:
        return {}
    scale = lcm(*(c.denominator for c in vec.values()))
    ints = {i: int(c * scale) for i, c in vec.items()}
    content = gcd(*ints.values())
    if ints[min(ints)] < 0:
        content = -content
    return {i: v // content for i, v in ints.items()}


def stripped_echelon(vectors):
    """Echelon rows by elimination that strips the content at every step."""
    rows = {}
    for vec in vectors:
        vec = canonical(vec)
        while vec:
            p = min(vec)
            if p not in rows:
                rows[p] = vec
                break
            a, b = vec[p], rows[p][p]
            new = {c: b * v for c, v in vec.items()}
            for c, rv in rows[p].items():
                new[c] = new.get(c, 0) - a * rv
            vec = canonical(new)
    return rows


def dense_nullspace(vectors, dim):
    """Canonical null vectors, one per free column, read off the dense RREF."""
    reduced = rref(vectors, dim)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    null = []
    for f in range(dim):
        if f in pivots:
            continue
        w = {f: Fraction(1)}
        for p, row in zip(pivots, reduced):
            w[p] = -row[f]
        null.append(canonical(w))
    return pivots, null


@st.composite
def sparse_matrices(draw):
    """A dimension and up to 8 sparse integer rows, some of them repeated."""
    dim = draw(st.integers(1, 8))
    entries = st.integers(-6, 6).filter(bool)
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, dim - 1), entries, max_size=4), max_size=8)
    )
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    return dim, rows


class TestEchelonProperties:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_matches_dense_oracle(self, case):
        dim, rows = case
        ech = _Echelon(dim)
        for row in rows:
            before = dict(row)
            pivot = ech.insert(row)
            assert row == before
            assert pivot is None or pivot == min(ech.rows[pivot])
        pivots, null = dense_nullspace(rows, dim)
        assert sorted(ech.rows) == pivots
        assert ech.rows == stripped_echelon(rows)
        assert ech.nullspace() == null

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(), st.integers(-3, 3).filter(bool))
    def test_repeated_row_is_dependent(self, case, factor):
        dim, rows = case
        ech = _Echelon(dim)
        for row in rows:
            ech.insert(row)
        stored = {p: dict(r) for p, r in ech.rows.items()}
        for row in rows:
            assert ech.insert(row) is None
            assert ech.insert({c: factor * v for c, v in row.items()}) is None
        assert ech.rows == stored


class TestSectorCertificate:
    """One sector's mod-p certificate against the exact echelon.

    With the working prime the certificate almost always settles a sector
    itself; a tiny prime makes ranks fall short, entries fail to lift and
    lifted candidates come out wrong, which the exact check must catch.
    """

    @pytest.mark.parametrize("modulus", [shapegen.MODULUS, 5, 3])
    @settings(max_examples=200, deadline=None)
    @given(case=sparse_matrices())
    def test_matches_exact_echelon(self, modulus, case):
        dim, rows = case
        ech = _Echelon(dim)
        for row in rows:
            ech.insert(row)
        want_null = len(rows) < dim
        expected = (ech.rank, ech.nullspace() if want_null else [])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shapegen, "MODULUS", modulus)
            certified = shapegen._certify(rows, dim, want_null)
            settled = shapegen._settle(rows, dim, want_null)
        if certified is not None:
            assert certified == expected
        assert settled == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-isqrt(shapegen.MODULUS // 2), isqrt(shapegen.MODULUS // 2)),
           st.integers(1, isqrt(shapegen.MODULUS // 2)))
    def test_lift_inverts_small_fractions(self, num, den):
        p = shapegen.MODULUS
        value = Fraction(num, den)
        residue = value.numerator * pow(value.denominator, -1, p) % p
        assert shapegen._lift(residue) == value

    def test_lift_refuses_what_has_no_small_fraction(self, monkeypatch):
        monkeypatch.setattr(shapegen, "MODULUS", 5)
        assert [shapegen._lift(r) for r in range(5)] == [0, 1, None, None, -1]

    @pytest.mark.parametrize(
        "system",
        [(3, 2, FERMION), (3, 2, BOSON), (2, 3, BOSON), (4, 2, FERMION), (3, 3, BOSON)],
        ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value}",
    )
    def test_settles_every_sector_without_the_exact_echelon(self, monkeypatch, system):
        def refuse(dim):
            raise AssertionError("a sector fell back to the exact echelon")

        monkeypatch.setattr(shapegen, "_Echelon", refuse)
        catalog = generate_shapes(*system)
        assert catalog.is_complete()
        top = catalog.shape_poly.degree()
        assert all(verify_span(catalog, g).passed for g in range(top - 1, top + 2))


class TestSectorLaw:
    @pytest.mark.parametrize(
        "system",
        [(3, 2, FERMION), (3, 2, BOSON), (2, 3, FERMION), (2, 3, BOSON), (4, 2, FERMION)],
        ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value}",
    )
    def test_shapes_fill_the_predicted_sectors(self, system):
        catalog = generate_shapes(*system)
        found = {}
        for rec in catalog.shapes:
            states = catalog.level_basis(rec.grade).states
            (sector,) = {states[i].sector for i in rec.coeffs}
            found[sector] = found.get(sector, 0) + 1
        assert found == sector_shape_counts(*system)

    def test_mismatch_is_named_by_grade_and_sector(self, monkeypatch):
        law = dict(sector_shape_counts(3, 2, FERMION))
        law[2, 2] += 1
        monkeypatch.setattr(shapegen, "sector_shape_counts", lambda n, d, stat: law)
        with pytest.raises(
            InternalConsistencyError,
            match=r"sector law mismatch at grade 4, sector \(2, 2\): expected 2 new "
            r"shapes, found 1",
        ):
            generate_shapes(3, 2, FERMION)

    def test_product_leaving_its_sector_is_named(self, monkeypatch):
        # The ground shape |(1,0),(0,1),(0,0)| lies in sector (1, 1), so its
        # product with e1(x) lies in (2, 1).  One image that also reaches a
        # state of sector (1, 2) must fail, naming grade, sector and state.
        level = LevelBasis(3, 2, 3, FERMION)
        stray = level.sectors[1, 2][0]
        orbitals = level.states[stray].orbitals
        real = ShapeCatalog._factor_image

        def leaky(self, grade, factor, i):
            image = real(self, grade, factor, i)
            return image + (stray, 1) if (grade, factor) == (2, (1, 1, 0)) else image

        monkeypatch.setattr(ShapeCatalog, "_factor_image", leaky)
        with pytest.raises(
            InternalConsistencyError,
            match=re.escape(
                f"a product at grade 3 leaves its sector (2, 1): state {orbitals} "
                "lies in sector (1, 2)"
            ),
        ):
            generate_shapes(3, 2, FERMION)


class TestMonomialsByShift:
    @pytest.mark.parametrize("n, d, degree", [(3, 2, 4), (2, 3, 5), (4, 2, 6), (3, 3, 0), (1, 2, 3)])
    def test_partitions_the_enumeration_in_order(self, n, d, degree):
        monomials = enumerate_euler_monomials(n, d, degree)
        groups = shapegen._monomials_by_shift(n, d, degree)
        for shift, group in groups.items():
            assert len(shift) == d and sum(shift) == degree
            for euler in group:
                per_axis = [0] * d
                for m, k, axis in euler.factors():
                    per_axis[axis] += m * k
                assert tuple(per_axis) == shift
            assert list(group) == [e for e in monomials if e in group]
        assert sum(map(len, groups.values())) == len(monomials)
        assert {e for g in groups.values() for e in g} == set(monomials)


class TestWorkedExample32:
    """The n=3, d=2 construction, level by level."""

    def test_six_shapes_total(self, catalog_32):
        assert catalog_32.total_count == 6
        assert catalog_32.is_complete()

    def test_ground_shape_is_g0(self, catalog_32):
        ground = catalog_32.shapes_at(2)
        assert len(ground) == 1
        basis = catalog_32.level_basis(2)
        assert basis.states[0].orbitals == ((1, 0), (0, 1), (0, 0))
        assert ground[0].coeffs == {0: 1}

    def test_first_level_complement_matches_paper(self, catalog_32):
        basis = catalog_32.level_basis(3)
        def at(orbitals):
            return basis.index[SlaterState.from_orbitals(orbitals, FERMION).orbitals]

        idx = {
            "g11": at([(2, 0), (1, 0), (0, 0)]),
            "g12": at([(1, 1), (1, 0), (0, 0)]),
            "g13": at([(0, 2), (1, 0), (0, 0)]),
            "g14": at([(2, 0), (0, 1), (0, 0)]),
            "g15": at([(1, 1), (0, 1), (0, 0)]),
            "g16": at([(0, 2), (0, 1), (0, 0)]),
        }
        expected = [
            {idx["g11"]: 1},
            {idx["g12"]: 1, idx["g14"]: 1},
            {idx["g13"]: 1, idx["g15"]: 1},
            {idx["g16"]: 1},
        ]
        ours = [s.coeffs for s in catalog_32.shapes_at(3)]
        assert rref(ours, 6) == rref(expected, 6)

    def test_second_level_shape_matches_paper(self, catalog_32):
        basis = catalog_32.level_basis(4)
        paper_states = [
            ([(1, 2), (1, 0), (0, 0)], 1),   # |t1 u1^2, t2, 1|
            ([(2, 1), (0, 1), (0, 0)], -1),  # -|t1^2 u1, u2, 1|
            ([(2, 0), (0, 2), (0, 0)], 1),   # |t1^2, u2^2, 1|
            ([(1, 1), (1, 0), (0, 1)], -1),  # -|t1 u1, t2, u3|
        ]
        expected = {
            basis.index[SlaterState.from_orbitals(orbs, FERMION).orbitals]: c
            for orbs, c in paper_states
        }
        (shape,) = catalog_32.shapes_at(4)
        assert rref([shape.coeffs], 14) == rref([expected], 14)

    def test_shape_uses_4_of_14_states(self, catalog_32):
        (shape,) = catalog_32.shapes_at(4)
        assert len(shape.coeffs) == 4
        assert len(catalog_32.level_basis(4)) == 14

    @pytest.mark.parametrize("grade", [2, 3, 4, 5, 6])
    def test_span_completeness_beyond_top(self, catalog_32, grade):
        report = verify_span(catalog_32, grade)
        assert report.passed
        assert report.rank == report.dimension

    def test_rank_deficit_is_reported_with_the_exact_rank(self, catalog_32, monkeypatch):
        # Without shape 3:1 and with the first product twice, the sector of
        # that product has two dependent vectors: its certificate fails and
        # the exact echelon reports the rank.
        partial = ShapeCatalog.from_json_obj(catalog_32.to_json_obj())
        partial.shapes = [s for s in partial.shapes if s.id != "3:1"]
        monkeypatch.setattr(shapegen, "_sector_blocks", with_duplicate(shapegen._sector_blocks))
        report = verify_span(partial, 3)
        assert (report.rank, report.dimension, report.vector_count) == (5, 6, 6)
        assert not report.passed
        report = verify_span(partial, 4)
        assert (report.rank, report.dimension, report.vector_count) == (12, 14, 13)

    def test_span_report_values(self, catalog_32):
        report = verify_span(catalog_32, 4)
        assert report.rank == 14
        assert report.dimension == 14
        assert report.vector_count == 14
        report2 = verify_span(catalog_32, 2)
        assert report2.rank == 1


class TestFactorImageCache:
    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_warm_cache_matches_cold(self, stat):
        warm = generate_shapes(3, 2, stat)
        cold = ShapeCatalog.from_json_obj(warm.to_json_obj())
        assert warm._images and not cold._images
        top = warm.shape_poly.degree()
        for grade in range(warm.shape_poly.lowest_degree(), top + 3):
            ours = [(r.id, e, v) for r, e, v in trivial_products(warm, grade)]
            again = [(r.id, e, v) for r, e, v in trivial_products(cold, grade)]
            assert ours == again

    def test_mutating_a_product_changes_no_later_call(self):
        catalog = generate_shapes(3, 2, BOSON)
        shapes_before = [dict(s.coeffs) for s in catalog.shapes]
        for grade in range(0, 6):
            first = [dict(v) for _, _, v in trivial_products(catalog, grade)]
            for _, _, vec in trivial_products(catalog, grade):
                vec[0] = vec.get(0, 0) + 7
                vec.pop(max(vec))
            assert [v for _, _, v in trivial_products(catalog, grade)] == first
        assert [s.coeffs for s in catalog.shapes] == shapes_before


class TestWorkedExample23:
    def test_four_shapes(self, catalog_23):
        assert catalog_23.total_count == 4
        grades = sorted(s.grade for s in catalog_23.shapes)
        assert grades == [1, 1, 1, 3]

    def test_grade_one_shapes_are_axis_differences(self, catalog_23):
        # The three shapes are the unit vectors on the three grade-1 states,
        # which carry one quantum on the t, u, v axis respectively.
        basis = catalog_23.level_basis(1)
        assert [s.coeffs for s in catalog_23.shapes_at(1)] == [
            {0: 1}, {1: 1}, {2: 1},
        ]
        top_orbitals = {basis.states[i].orbitals[0] for i in range(3)}
        assert top_orbitals == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_top_shape_is_product_of_the_three(self, catalog_23):
        basis = catalog_23.level_basis(3)
        product = (
            SlaterState.from_orbitals([(1, 0, 0), (0, 0, 0)], FERMION).expand()
            * SlaterState.from_orbitals([(0, 1, 0), (0, 0, 0)], FERMION).expand()
            * SlaterState.from_orbitals([(0, 0, 1), (0, 0, 0)], FERMION).expand()
        )
        expected = deflate_sparse(product, basis)
        (top,) = catalog_23.shapes_at(3)
        assert rref([top.coeffs], len(basis)) == rref([expected], len(basis))

    def test_span_through_grade_five(self, catalog_23):
        for grade in range(1, 6):
            assert verify_span(catalog_23, grade).passed


class TestCountLaw:
    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d2_small(self, n, stat):
        catalog = generate_shapes(n, 2, stat)
        assert catalog.total_count == total_shape_count(n, 2)

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    @pytest.mark.parametrize("n", [2, 3])
    def test_d3_small(self, n, stat):
        catalog = generate_shapes(n, 3, stat)
        assert catalog.total_count == total_shape_count(n, 3)

    def test_d2_n4_fermion(self):
        catalog = generate_shapes(4, 2, FERMION)
        assert catalog.total_count == 24

    def test_d2_n4_boson(self):
        # the slowest desk-scale case: the boson polynomial reaches grade 12
        catalog = generate_shapes(4, 2, BOSON)
        assert catalog.total_count == 24

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_per_grade_law(self, stat):
        catalog = generate_shapes(3, 2, stat)
        poly = shape_polynomial(3, 2, stat)
        for grade in range(poly.degree() + 1):
            assert len(catalog.shapes_at(grade)) == poly.coefficient(grade)

    @pytest.mark.parametrize("stat", [FERMION, BOSON])
    def test_shape_exchange_symmetry(self, stat):
        catalog = generate_shapes(3, 2, stat)
        for rec in catalog.shapes:
            poly = rec.materialize(catalog.level_basis(rec.grade))
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                swapped = swap_particles(poly, i, j)
                assert swapped == (poly if stat is BOSON else -1 * poly)

    def test_boson_ground_is_single_constant_state(self):
        catalog = generate_shapes(3, 2, BOSON)
        ground = catalog.shapes_at(0)
        assert len(ground) == 1
        basis = catalog.level_basis(0)
        assert len(basis) == 1
        assert basis.states[0].orbitals == ((0, 0), (0, 0), (0, 0))


class TestDeterminismAndSerialization:
    def test_two_runs_identical(self):
        a = generate_shapes(3, 2, FERMION)
        b = generate_shapes(3, 2, FERMION)
        assert [(s.id, s.coeffs) for s in a.shapes] == [
            (s.id, s.coeffs) for s in b.shapes
        ]

    def test_json_round_trip(self, catalog_32):
        obj = catalog_32.to_json_obj()
        again = ShapeCatalog.from_json_obj(obj)
        assert [(s.id, dict(s.coeffs)) for s in again.shapes] == [
            (s.id, dict(s.coeffs)) for s in catalog_32.shapes
        ]
        assert again.shape_poly == catalog_32.shape_poly
        assert json.dumps(again.to_json_obj()) == json.dumps(obj)

    def test_byte_identical_json(self):
        a = json.dumps(generate_shapes(2, 3, FERMION).to_json_obj(), sort_keys=True)
        b = json.dumps(generate_shapes(2, 3, FERMION).to_json_obj(), sort_keys=True)
        assert a == b

    def test_find_by_id(self, catalog_32):
        assert catalog_32.find("4:0").grade == 4
        with pytest.raises(KeyError):
            catalog_32.find("9:9")


class TestGuards:
    def test_state_cap_refusal(self):
        with pytest.raises(StateCapExceeded):
            generate_shapes(3, 3, FERMION, state_cap=100)

    def test_state_cap_environment_override(self, monkeypatch):
        from shapes.shapegen import default_state_cap

        monkeypatch.setenv("SHAPES_STATE_CAP", "123")
        assert default_state_cap() == 123
        with pytest.raises(StateCapExceeded):
            generate_shapes(3, 3, FERMION)

    def test_max_grade_truncates(self):
        partial = generate_shapes(3, 2, FERMION, max_grade=3)
        assert partial.total_count == 5
        assert not partial.is_complete()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_shapes(0, 2, FERMION)

    def test_dependent_trivial_product_is_named(self, monkeypatch):
        # Freeness: every trivial product is independent.  Feeding one
        # product twice must fail at once, naming grade, count and rank.
        monkeypatch.setattr(shapegen, "_sector_blocks", with_duplicate(shapegen._sector_blocks))
        with pytest.raises(
            InternalConsistencyError, match="grade 3 are not free: 3 vectors have rank 2"
        ):
            generate_shapes(3, 2, FERMION)
