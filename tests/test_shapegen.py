"""Tests for shape generation, complements, and span verification."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shapes.counting import (
    BOSON,
    FERMION,
    sector_shape_counts,
    shape_polynomial,
    total_shape_count,
)
from shapes.deflation import LevelBasis, deflate_sparse
from shapes import polycore, products, shapegen
from shapes.errors import InternalConsistencyError, StateCapExceeded
from shapes.polycore import SlaterState, enumerate_euler_monomials, euler_table, sector_of
from shapes.products import trivial_products
from shapes.shapegen import (
    ShapeCatalog,
    ShapeRecord,
    _Echelon,
    generate_shapes,
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


def with_duplicate(take):
    """Wrap Products.take to repeat one product per grade.

    The first product of the first sector that has any is taken twice.
    """
    repeated = set()  # (Products, grade) pairs that already took their duplicate

    def wrapped(self, keys):
        states, coeffs, bounds = take(self, keys)
        if len(keys) and (self, self._grade) not in repeated:
            repeated.add((self, self._grade))
            lo, hi = bounds[:2]
            states = np.concatenate([states, states[lo:hi]])
            coeffs = np.concatenate([coeffs, coeffs[lo:hi]])
            bounds = np.append(bounds, bounds[-1] + hi - lo)
        return states, coeffs, bounds

    return wrapped


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


def as_products(rows):
    """Sparse {column: coeff} rows as the (positions, coefficients, bounds)
    triple _settle takes, coefficients as narrow as Products.take gives them."""
    positions = np.array([c for row in rows for c in row], dtype=np.intp)
    coeffs = products._compact(np.array([v for row in rows for v in row.values()], dtype=object))
    return positions, coeffs, np.cumsum([0] + [len(row) for row in rows])


def block(rows, dim):
    """Sparse {column: coeff} rows as the dense float64 block _certify takes."""
    return shapegen._dense_block(as_products(rows), dim)


class TestSectorCertificate:
    """One sector's float certificate against the exact echelon.

    With the working denominator bound the certificate almost always settles
    a sector itself; a small bound leaves candidates that do not round,
    which it must refuse.  Whenever it answers, the answer is the exact one,
    and dependent products are never proven.
    """

    @pytest.mark.parametrize("bound", [shapegen.DENOMINATOR_BOUND, 5, 3])
    @settings(max_examples=200, deadline=None)
    @given(case=sparse_matrices())
    def test_matches_exact_echelon(self, bound, case):
        dim, rows = case
        ech = _Echelon(dim)
        for row in rows:
            ech.insert(row)
        expected = (ech.rank, ech.nullspace())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shapegen, "DENOMINATOR_BOUND", bound)
            certified = shapegen._certify(block(rows, dim))
            settled = shapegen._settle(as_products(rows), dim)
        if certified is not None:
            assert ech.rank == len(rows)
            assert certified == expected
        assert settled == expected

    def test_free_columns_before_the_first_and_after_the_last_pivot(self):
        # Pivots 1, 2, 3: column 0 is free before the first, column 4 after
        # the last, and its null vector needs every pivot back-substituted.
        rows = [{1: 1, 2: 3, 4: 2}, {2: 2, 3: -1, 4: 5}, {3: 2, 4: 1}]
        ech = _Echelon(5)
        for row in rows:
            ech.insert(row)
        assert sorted(ech.rows) == [1, 2, 3]
        null = ech.nullspace()
        assert null[0] == {0: 1} and sorted(null[1]) == [1, 2, 3, 4]
        assert shapegen._certify(block(rows, 5)) == (3, null)

    def test_large_entries_are_checked_in_python_integers(self):
        # (1 + 2^27) * 2^27 >= 2^52: one float64 product would not be exact.
        assert shapegen._certify(block([{0: 1, 1: 2**27}], 2)) == (1, [{0: 2**27, 1: -1}])

    def test_small_null_basis_entries_are_not_taken_for_zero(self):
        # The null vector (2^30, -1) normalizes to entries 1 and 9.3e-10:
        # small, but far above the QR's rounding, so column 1 is free.
        assert shapegen._certify(block([{0: 1, 1: 2**30}], 2)) == (1, [{0: 2**30, 1: -1}])

    @pytest.mark.parametrize("big", [2**53, 2**70], ids=["int64", "python-int"])
    def test_entries_from_2_53_go_to_the_exact_echelon(self, monkeypatch, big):
        # float64 does not hold every integer from 2^53 on: no dense block.
        echelons = []
        real = shapegen._Echelon

        def spy(ambient_dim):
            echelons.append(real(ambient_dim))
            return echelons[-1]

        monkeypatch.setattr(shapegen, "_Echelon", spy)
        products = as_products([{0: 1, 1: big}, {1: 1, 2: 3}])
        assert shapegen._dense_block(products, 3) is None
        assert shapegen._settle(products, 3) == (2, [{0: 3 * big, 1: -3, 2: 1}])
        assert len(echelons) == 1

    @pytest.mark.parametrize("bound", [shapegen.DENOMINATOR_BOUND, 5, 3])
    @settings(max_examples=200, deadline=None)
    @given(case=sparse_matrices())
    def test_free_columns_at_both_ends_match_exact_echelon(self, bound, case):
        # Shifted one column right and padded by one, no product touches
        # the first or the last column: both are free.
        dim, rows = case
        dim += 2
        rows = [{c + 1: v for c, v in row.items()} for row in rows]
        ech = _Echelon(dim)
        for row in rows:
            ech.insert(row)
        assert not {0, dim - 1} & set(ech.rows)
        expected = (ech.rank, ech.nullspace())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shapegen, "DENOMINATOR_BOUND", bound)
            certified = shapegen._certify(block(rows, dim))
            settled = shapegen._settle(as_products(rows), dim)
        if certified is not None:
            assert ech.rank == len(rows)
            assert certified == expected
        assert settled == expected

    @pytest.mark.parametrize(
        "rows, dim, rank",
        [
            # Unimodular (det -1) but too ill-conditioned for the float proof.
            ([{0: 2**26, 1: 2**26 + 1}, {0: 2**26 + 1, 1: 2**26 + 2}], 2, 2),
            ([{0: 1, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 3}], 3, 1),
            # B = [2^20] is proven, but the null vector's entry
            # -(2^20 + 1)/2^20 rounds to -1: only the exact check refuses it.
            ([{0: 2**20, 1: 2**20 + 1}], 2, 1),
            # The same, with an entry large enough that the exact check sums
            # Python integers instead of taking one float64 product.
            ([{0: 2**20, 1: 2**20 + 1, 2: 2**40}], 3, 1),
        ],
        ids=["ill-conditioned", "repeated-row", "near-integer", "near-integer-large"],
    )
    def test_refused_blocks_are_settled_by_the_exact_echelon(self, monkeypatch, rows, dim, rank):
        echelons = []
        real = shapegen._Echelon

        def spy(ambient_dim):
            echelons.append(real(ambient_dim))
            return echelons[-1]

        monkeypatch.setattr(shapegen, "_Echelon", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shapegen._certify(block(rows, dim)) is None
            settled = shapegen._settle(as_products(rows), dim)
        assert [ech.rank for ech in echelons] == [rank]
        assert settled == (rank, echelons[0].nullspace())

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


class TestOneBlasThread:
    """The certificates run on one OpenBLAS thread, and the catalog does
    not depend on the thread count."""

    def test_certificates_run_on_one_thread_and_the_count_is_restored(self, monkeypatch):
        found = shapegen._blas_threads()
        if found is None:
            pytest.skip("numpy's bundled OpenBLAS is not found")
        get, set_threads = found
        seen, real = [], shapegen._certify

        def spy(a):
            seen.append(get())
            return real(a)

        def fail(a):
            raise RuntimeError("certificate failed")

        before = get()
        set_threads(2)
        try:
            monkeypatch.setattr(shapegen, "_certify", spy)
            generate_shapes(3, 2, FERMION)
            assert get() == 2
            monkeypatch.setattr(shapegen, "_certify", fail)
            with pytest.raises(RuntimeError, match="certificate failed"):
                generate_shapes(3, 2, FERMION)
            assert get() == 2
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}

    def test_catalog_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        source = os.path.dirname(os.path.dirname(shapegen.__file__))
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        script = (
            "import sys; from shapes.cli import main\n"
            "for n, d in ((3, 3), (5, 2)):\n"
            "    out = f'{sys.argv[1]}/{n}{d}.json'\n"
            "    main(['generate', '--n', str(n), '--d', str(d), '--out', out])"
        )
        written = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            written[threads] = [(out / f"{name}.json").read_bytes() for name in ("33", "52")]
        assert written["1"] == written["2"]


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
            basis = catalog.level_basis(rec.grade)
            (sector,) = {sector_of(basis.orbitals(i)) for i in rec.coeffs}
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

    @pytest.mark.parametrize(
        "grade, sector, stray, lies_in, where",
        [
            (3, (2, 1), 0, (3, 0), "below"),
            (4, (3, 1), 9, (2, 2), "between"),
            (3, (2, 1), 3, (1, 2), "above"),
        ],
        ids=["below", "between", "above"],
    )
    def test_product_leaving_its_sector_is_named(
        self, monkeypatch, grade, sector, stray, lies_in, where
    ):
        # The ground shape |(1,0),(0,1),(0,0)| lies in sector (1, 1), so its
        # products with powers of e1(x) lie in (1 + j, 1).  Subset rows of
        # e1(x) whose rows from the sector one factor lower also reach a
        # state below, between or above the sector's states (the three
        # branches of the lookup) must fail, naming grade, sector and state.
        level = LevelBasis(3, 2, grade, FERMION)
        indices = level.sectors[sector]
        place = np.searchsorted(indices, stray)
        assert stray not in indices.tolist()
        assert where == ("below" if place == 0 else "above" if place == len(indices) else "between")
        orbitals = level.orbitals(stray)
        home = (sector[0] - 1, sector[1])
        real = products._subset_rows

        def leaky(source, factor, states):
            rows = real(source, factor, states)
            if (source.grade, factor) == (grade - 1, (1, 1, 0)):
                # One more row per state: the stray state's own rows for the
                # states of the sector one factor lower, and a row with a
                # repeated code, of phase 0, for the others.
                extra = (source.state_sectors(states) == home).all(axis=1)[:, None, None]
                rows = np.concatenate([rows, np.where(extra, level.code_array[stray], 0)], axis=1)
            return rows

        monkeypatch.setattr(products, "_subset_rows", leaky)
        with pytest.raises(
            InternalConsistencyError,
            match=re.escape(
                f"a product at grade {grade} leaves its sector {sector}: state {orbitals} "
                f"lies in sector {lies_in}"
            ),
        ):
            generate_shapes(3, 2, FERMION)

    @pytest.mark.parametrize(
        "system, max_grade, rationalized",
        [((3, 3, FERMION), None, 10), ((4, 2, BOSON), 10, 12)],
        ids=["3-3-fermion", "4-2-boson"],
    )
    def test_null_vectors_only_in_sectors_that_hold_shapes(
        self, monkeypatch, system, max_grade, rationalized
    ):
        # Every block with free columns gets its null vectors.  A sector the
        # law gives no shapes has a square, full-rank block, so only sectors
        # that hold shapes round any, as often as when null vectors were
        # asked for in those sectors alone (10 and 12 blocks).
        law = sector_shape_counts(*system)
        calls, with_null = [], []
        real_rationalize = shapegen._rationalize
        real_complements = shapegen._sector_complements

        def rationalize(x):
            calls.append(x.shape)
            return real_rationalize(x)

        def complements(*args):
            count, blocks = real_complements(*args)
            for sector, (_rank, null) in blocks.items():
                if null:
                    with_null.append(sector)
                    assert law.get(sector, 0) == len(null)
            return count, blocks

        monkeypatch.setattr(shapegen, "_rationalize", rationalize)
        monkeypatch.setattr(shapegen, "_sector_complements", complements)
        generate_shapes(*system, max_grade=max_grade)
        assert len(calls) == rationalized
        assert with_null


AXIS_SYSTEMS = [
    (3, 2, FERMION), (3, 2, BOSON), (2, 3, FERMION), (2, 3, BOSON),
    (3, 3, BOSON), (4, 2, FERMION), (4, 2, BOSON),
]


@cache
def settled_directly(system):
    """(catalog, {grade: {sector: (lower products, canonical null vectors)}}).

    The products are every lower shape times every Euler monomial, as
    {position: coeff} dicts in the sector's coordinates, and the null
    vectors, in level indices, are what _settle gives on them: every sector
    of every grade settled on its own, whether generation formed it or
    carried shapes into it.
    """
    catalog = generate_shapes(*system)
    out = {}
    for grade in range(catalog.shape_poly.lowest_degree(), catalog.max_grade + 1):
        sectors = catalog.level_basis(grade).sectors
        formed = products.products_through(catalog, grade)
        # Keys of the empty monomial, a multiple of the table size, are the
        # shapes of this grade.
        plan = {
            sector: keys[keys % len(formed.table) > 0]
            for sector, keys in formed.plan(grade).items()
        }
        out[grade] = {}
        for sector, indices in sectors.items():
            states, coeffs, bounds = formed.take(plan[sector])
            positions = np.searchsorted(indices, states)
            _rank, null = shapegen._settle((positions, coeffs, bounds), len(indices))
            positions, coeffs, bounds = positions.tolist(), coeffs.tolist(), bounds.tolist()
            rows = [dict(zip(positions[lo:hi], coeffs[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
            out[grade][sector] = rows, [{indices[i]: v for i, v in vec.items()} for vec in null]
    return catalog, out


def subtract(vec, f, row):
    """vec -= f * row on sparse vectors, in place, dropping zeros."""
    for c, v in row.items():
        nv = vec.get(c, 0) - f * v
        if nv:
            vec[c] = nv
        else:
            del vec[c]


def fraction_canonical_basis(vectors):
    """The canonical basis of the span of linearly independent vectors, by
    Gauss-Jordan elimination in Fractions pivoting on the largest index:
    each vector ends with a 1 at its pivot and zeros at the others' pivots."""
    rows = {}
    for vec in vectors:
        vec = {i: Fraction(c) for i, c in vec.items()}
        for p, row in rows.items():
            if p in vec:
                subtract(vec, vec[p], row)
        q = max(vec)
        vec = {i: v / vec[q] for i, v in vec.items()}
        for row in rows.values():
            if q in row:
                subtract(row, row[q], vec)
        rows[q] = vec
    return [canonical(rows[q]) for q in sorted(rows)]


@st.composite
def independent_vectors(draw):
    """Up to 6 linearly independent sparse integer vectors, some entries past 2^63."""
    dim = draw(st.integers(1, 6))
    entries = st.integers(-9, 9).filter(bool) | st.sampled_from([2**63 + 5, -(2**64) - 1])
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, dim - 1), entries, min_size=1, max_size=4),
            min_size=1,
            max_size=dim,
        )
    )
    ech = _Echelon(dim)
    for row in rows:
        ech.insert(row)
    assume(ech.rank == len(rows))
    return rows


class TestCanonicalBasis:
    """The transport's integer Gauss-Jordan against the same elimination in Fractions."""

    @settings(max_examples=200, deadline=None)
    @example([{0: 4, 1: 6}, {1: 3, 2: 9}])  # content above 1
    @example([{0: -3, 2: 1}, {1: -1, 2: 2}])  # negative lowest-index entries
    @example([{0: 1, 2: 2}, {1: 1, 2: 3}])  # the pivot 2 does not divide 3
    @example([{0: 3, 2: 2}, {0: 1, 1: 5, 2: 7}, {1: 4, 2: 5}])  # nor 7, nor 5
    @example([{0: 2**63 + 1, 1: 3}, {0: 5, 1: 2**64}])  # entries past 2^63
    @given(independent_vectors())
    def test_matches_fraction_elimination(self, vectors):
        before = [dict(vec) for vec in vectors]
        assert shapegen._canonical_basis(vectors) == fraction_canonical_basis(vectors)
        assert vectors == before


def permute_polynomial(poly, perm):
    """poly with every particle's exponents (e_0, ..., e_d-1) made (e_perm[0], ...)."""
    d = poly.d
    terms = {}
    for mono, c in poly.terms.items():
        rows = [mono[i : i + d] for i in range(0, len(mono), d)]
        terms[tuple(row[a] for row in rows for a in perm)] = c
    return type(poly)(poly.n, d, terms)


class TestAxisPermutations:
    """Permuting the axes carries shapes to shapes, which generation relies on."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_images_of_shapes_are_the_shapes_of_the_image_sector(self, data):
        system = data.draw(st.sampled_from(AXIS_SYSTEMS), label="system")
        perm = tuple(data.draw(st.permutations(range(system[1])), label="perm"))
        catalog, direct = settled_directly(system)
        by_sector = {}
        for rec in catalog.shapes:
            (sector,) = {sector_of(catalog.level_basis(rec.grade).orbitals(i)) for i in rec.coeffs}
            by_sector.setdefault((rec.grade, sector), []).append(rec.coeffs)
        for (grade, sector), shapes in by_sector.items():
            basis = catalog.level_basis(grade)
            image = tuple(sector[a] for a in perm)
            images = [shapegen._permute_axes(basis, vec, perm) for vec in shapes]
            position = {i: pos for pos, i in enumerate(basis.sectors[image])}
            for vec in images:
                assert {sector_of(basis.orbitals(i)) for i in vec} == {image}
                for product in direct[grade][image][0]:
                    assert sum(c * product.get(position[i], 0) for i, c in vec.items()) == 0
            settled = direct[grade][image][1]
            assert shapegen._canonical_basis(images) == settled
            assert by_sector[grade, image] == settled

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_state_map_is_the_substitution_of_axes(self, data):
        n, d, stat = data.draw(st.sampled_from(AXIS_SYSTEMS), label="system")
        perm = tuple(data.draw(st.permutations(range(d)), label="perm"))
        ground = shape_polynomial(n, d, stat).lowest_degree()
        basis = LevelBasis(n, d, ground + data.draw(st.integers(0, 3), label="grade"), stat)
        i = data.draw(st.integers(0, len(basis) - 1), label="state")
        image = shapegen._permute_axes(basis, {i: 1}, perm)
        expected = deflate_sparse(permute_polynomial(basis.expansion(i), perm), basis)
        assert image == expected

    def test_generation_settles_one_sector_per_orbit(self, monkeypatch):
        settled = []
        real = shapegen._settle

        def spy(block, dim):
            settled.append(len(block[2]) - 1)
            return real(block, dim)

        monkeypatch.setattr(shapegen, "_settle", spy)
        catalog = generate_shapes(3, 3, FERMION)
        levels = range(catalog.shape_poly.lowest_degree(), catalog.max_grade + 1)
        representatives = [
            sector
            for grade in levels
            for sector in catalog.level_basis(grade).sectors
            if list(sector) == sorted(sector, reverse=True)
        ]
        assert len(settled) == len(representatives) == 50
        assert sum(settled) == 1792

    def test_verify_settles_every_sector(self, monkeypatch):
        catalog = generate_shapes(3, 3, FERMION)
        settled = []
        real = shapegen._settle

        def spy(block, dim):
            settled.append(dim)
            return real(block, dim)

        monkeypatch.setattr(shapegen, "_settle", spy)
        report = verify_span(catalog, 6)
        assert report.passed
        sectors = catalog.level_basis(6).sectors
        assert sorted(settled) == sorted(map(len, sectors.values()))
        assert len(settled) == len(sectors)


class TestMonomialsByShift:
    @pytest.mark.parametrize("n, d, degree", [(3, 2, 4), (2, 3, 5), (4, 2, 6), (3, 3, 0), (1, 2, 3)])
    def test_partitions_the_enumeration_in_order(self, n, d, degree):
        # The table numbers one degree's monomials in enumeration order and
        # gives each its per-axis degrees, by which Products.plan groups them.
        monomials = enumerate_euler_monomials(n, d, degree)
        table = euler_table(n, d, degree + 2)
        numbers = range(table.starts[degree], table.starts[degree + 1])
        assert [table.monomial(i) for i in numbers] == monomials
        for i, euler in zip(numbers, monomials):
            per_axis = [0] * d
            for m, k, axis in euler.factors():
                per_axis[axis] += m * k
            assert table.shifts[i].tolist() == per_axis
            assert len(per_axis) == d and sum(per_axis) == degree == table.degrees[i]


class TestWorkedExample32:
    """The n=3, d=2 construction, level by level."""

    def test_six_shapes_total(self, catalog_32):
        assert catalog_32.total_count == 6
        assert catalog_32.is_complete()

    def test_ground_shape_is_g0(self, catalog_32):
        ground = catalog_32.shapes_at(2)
        assert len(ground) == 1
        basis = catalog_32.level_basis(2)
        assert basis.orbitals(0) == ((1, 0), (0, 1), (0, 0))
        assert ground[0].coeffs == {0: 1}

    def test_first_level_complement_matches_paper(self, catalog_32):
        basis = catalog_32.level_basis(3)
        def at(orbitals):
            state = SlaterState.from_orbitals(orbitals, FERMION)
            return basis.locate(state.orbitals)

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
            basis.locate(SlaterState.from_orbitals(orbs, FERMION).orbitals): c
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
        monkeypatch.setattr(products.Products, "take", with_duplicate(products.Products.take))
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


ENGINE_SYSTEMS = [
    (2, 2, FERMION), (2, 2, BOSON), (3, 2, FERMION), (3, 2, BOSON), (2, 3, FERMION),
    (2, 3, BOSON), (3, 1, FERMION), (3, 1, BOSON),
]


@st.composite
def sector_vectors(draw, coefficients=st.integers(-9, 9).filter(bool)):
    """A catalog of one to three random integer vectors, each inside one
    sector of a grade at most two above the ground grade, standing in for
    shapes."""
    n, d, stat = draw(st.sampled_from(ENGINE_SYSTEMS), label="system")
    ground = shape_polynomial(n, d, stat).lowest_degree()
    shapes = []
    for index in range(draw(st.integers(1, 3), label="shapes")):
        grade = ground + draw(st.integers(0, 2), label="grade")
        indices = draw(st.sampled_from(list(LevelBasis(n, d, grade, stat).sectors.values())))
        support = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
        shapes.append(ShapeRecord(grade, index, {i: draw(coefficients) for i in support}))
    top = max(rec.grade for rec in shapes) + 3
    return ShapeCatalog(n, d, stat, shape_polynomial(n, d, stat), top, shapes=shapes)


def expand_then_deflate(catalog, rec, euler):
    """The product of a shape and a monomial, by expanding both and deflating."""
    poly = catalog.level_basis(rec.grade).materialize(rec.coeffs) * euler.materialize()
    return deflate_sparse(poly, catalog.level_basis(rec.grade + euler.degree))


class TestProductEngine:
    """Products formed a factor at a time in batched Pieri passes, against
    expanded polynomials."""

    @settings(max_examples=40, deadline=None)
    @given(sector_vectors())
    def test_products_match_expand_then_deflate(self, catalog):
        lowest = min(rec.grade for rec in catalog.shapes)
        for grade in range(lowest, catalog.max_grade + 1):
            for rec, euler, vec in trivial_products(catalog, grade):
                assert all(type(c) is int for c in vec.values())
                assert vec == expand_then_deflate(catalog, rec, euler), (rec.id, str(euler))

    @pytest.mark.parametrize("system", [(3, 2, FERMION), (3, 2, BOSON)], ids=["fermion", "boson"])
    def test_coefficients_past_int64_take_python_integers(self, monkeypatch, system):
        # ||v||_1 * C(3, 1) >= 2^63: an e1 pass must run in Python ints, and
        # its products, some past 2^63, must still be exact.
        n, d, stat = system
        wide = []
        real = products._sum_equal_keys

        def spy(keys, values):
            wide.append(values.dtype == object)
            return real(keys, values)

        monkeypatch.setattr(products, "_sum_equal_keys", spy)
        grade = shape_polynomial(n, d, stat).lowest_degree() + 2
        indices = max(LevelBasis(n, d, grade, stat).sectors.values(), key=len)
        big = 2**61 + 1
        shape = ShapeRecord(grade, 0, {i: big + 7 * pos for pos, i in enumerate(indices[:4])})
        catalog = ShapeCatalog(n, d, stat, shape_polynomial(n, d, stat), grade + 2, shapes=[shape])
        largest = 0
        for rec, euler, vec in trivial_products(catalog, grade + 2):
            assert vec == expand_then_deflate(catalog, rec, euler), str(euler)
            largest = max(largest, *map(abs, vec.values()))
        assert any(wide) and largest > 2**62

    @pytest.mark.parametrize("system", [(3, 2, FERMION), (3, 2, BOSON)], ids=["fermion", "boson"])
    def test_vectors_that_fit_run_in_int64_beside_wide_ones(self, monkeypatch, system):
        # A shape past int64 and a small one are stored together, as Python
        # ints, and every vector is its own chunk: the small shape's
        # products still run in int64, and every product is exact.
        n, d, stat = system
        dtypes = []
        real = products._sum_equal_keys

        def spy(keys, values):
            dtypes.append(values.dtype)
            return real(keys, values)

        monkeypatch.setattr(polycore, "CHUNK_BYTES", products._PAIR_BYTES)
        monkeypatch.setattr(products, "_GRADE_PARTS", 2**62)
        monkeypatch.setattr(products, "_sum_equal_keys", spy)
        grade = shape_polynomial(n, d, stat).lowest_degree() + 2
        indices = max(LevelBasis(n, d, grade, stat).sectors.values(), key=len)
        wide = ShapeRecord(grade, 0, {i: 2**63 + 1 + 7 * pos for pos, i in enumerate(indices[:4])})
        small = ShapeRecord(grade, 1, {int(indices[0]): 1})
        poly = shape_polynomial(n, d, stat)
        catalog = ShapeCatalog(n, d, stat, poly, grade + 2, shapes=[wide, small])
        for rec, euler, vec in trivial_products(catalog, grade + 2):
            assert vec == expand_then_deflate(catalog, rec, euler), (rec.id, str(euler))
        assert object in dtypes and np.int64 in dtypes

    def test_each_product_is_formed_once(self, monkeypatch):
        # Each (shape, monomial prefix) is one factor applied to a stored
        # product: (3,3,f) generation makes 1907 applications in one pass
        # per (source grade, factor), and one batch per grade, which locates
        # its rows once per chunk, not once per pass.
        passes, applied, grades, chunked, located = [], [], [], [], []
        real, real_chunks, real_locate = (
            products._apply_factors, products.chunks, LevelBasis.locate_signed
        )

        def spy(target, batch, vectors):
            grades.append(target.grade)
            chunked.append(0)
            located.append(0)
            begin = 0
            for source, factor, end in batch:
                passes.append((source.grade, factor))
                applied.append(end - begin)
                begin = end
            images = real(target, batch, vectors)
            grades.append(None)
            return images

        def counted(ends, parts):
            for part in real_chunks(ends, parts):
                chunked[-1] += 1
                yield part

        def locate(self, rows):
            if grades and grades[-1] is not None:
                located[-1] += 1
            return real_locate(self, rows)

        monkeypatch.setattr(products, "_apply_factors", spy)
        monkeypatch.setattr(products, "chunks", counted)
        monkeypatch.setattr(LevelBasis, "locate_signed", locate)
        generate_shapes(3, 3, FERMION)
        assert len(passes) == len(set(passes))
        assert sum(applied) == 1907
        batches = [g for g in grades if g is not None]
        assert len(batches) == len(set(batches))
        assert located == chunked and all(located)
        assert sum(located) < len(passes)

    def test_stored_products_are_freed_after_their_last_reader(self, monkeypatch):
        engines, sizes = set(), []
        real_form, real_take = products.Products.form, products.Products.take

        def live(stored):
            freed = stored.last < 0
            entries = np.diff(stored.bounds)
            # Freed rows are dropped before they hold more entries than the rest.
            assert not freed.any() or entries[freed].sum() < entries[~freed].sum()
            return int((~freed).sum())

        def form(self, grade):
            real_form(self, grade)
            engines.add(self)
            stored = self._stored
            sizes.append(live(stored))
            assert stored.last[stored.last >= 0].min(initial=grade) >= grade
            assert len(stored.keys) == len(stored.last) == len(stored.bounds) - 1

        def take(self, keys):
            last = self._stored.last[self._stored.find(keys)]
            out = real_take(self, keys)
            live(self._stored)
            # A product no later grade reads is gone once taken.
            for key, read in zip(keys.tolist(), last.tolist()):
                if read > self._grade:
                    self._stored.find(np.array([key]))
                else:
                    with pytest.raises(KeyError):
                        self._stored.find(np.array([key]))
            return out

        monkeypatch.setattr(products.Products, "form", form)
        monkeypatch.setattr(products.Products, "take", take)
        generate_shapes(3, 3, FERMION)
        (engine,) = engines
        # The top grade's blocks took its products and its batch read the
        # prefixes, so nothing is left; the 1907 products were never all held.
        assert len(engine._stored.keys) == 0 < max(sizes) < 1907

    def test_large_batches_are_joined_in_chunks(self, monkeypatch):
        catalog = generate_shapes(3, 2, BOSON)
        expected = [list(trivial_products(catalog, g)) for g in range(5, 8)]
        monkeypatch.setattr(polycore, "CHUNK_BYTES", 4 * products._PAIR_BYTES)
        monkeypatch.setattr(products, "_GRADE_PARTS", 2**62)
        assert [list(trivial_products(catalog, g)) for g in range(5, 8)] == expected

    @pytest.mark.parametrize(
        "system, max_grade",
        [((3, 3, FERMION), None), ((4, 2, BOSON), 10), ((3, 2, FERMION), None), ((3, 2, BOSON), None)],
        ids=["3-3-fermion", "4-2-boson-10", "3-2-fermion", "3-2-boson"],
    )
    def test_chunk_boundaries_change_no_byte(self, monkeypatch, system, max_grade):
        # With a bound of one (entry, subset) pair, and no share of a grade
        # above it, every level is built and keyed a few rows at a time, and
        # every grade's products are formed one vector at a time.
        def run():
            catalog = generate_shapes(*system, max_grade=max_grade)
            top = catalog.max_grade
            grades = range(catalog.shape_poly.lowest_degree(), top + 2)
            products = [(r.id, e, v) for g in grades for r, e, v in trivial_products(catalog, g)]
            return json.dumps(catalog.to_json_obj()), products

        expected = run()
        vectors, parts = [], []
        real, real_chunks = products._apply_factors, products.chunks

        def spy(target, passes, batch):
            vectors.append(len(batch.bounds) - 1)
            parts.append(0)
            return real(target, passes, batch)

        def counted(ends, most):
            for part in real_chunks(ends, most):
                parts[-1] += 1
                yield part

        monkeypatch.setattr(polycore, "CHUNK_BYTES", products._PAIR_BYTES)
        monkeypatch.setattr(products, "_GRADE_PARTS", 2**62)
        monkeypatch.setattr(products, "_apply_factors", spy)
        monkeypatch.setattr(products, "chunks", counted)
        assert run() == expected
        # A vector has at least one (entry, subset) pair, so each is a chunk.
        assert parts == vectors and max(parts) > 1

    def test_generation_heap_stays_bounded(self):
        # The products of a grade are formed in chunks bounded in bytes, so
        # the traced heap peak stays near that of one pass per factor.
        generate_shapes(4, 2, BOSON, max_grade=10)
        tracemalloc.start()
        try:
            generate_shapes(4, 2, BOSON, max_grade=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6


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
        top_orbitals = {basis.orbitals(i)[0] for i in range(3)}
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
            poly = catalog.level_basis(rec.grade).materialize(rec.coeffs)
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                swapped = swap_particles(poly, i, j)
                assert swapped == (poly if stat is BOSON else -1 * poly)

    def test_boson_ground_is_single_constant_state(self):
        catalog = generate_shapes(3, 2, BOSON)
        ground = catalog.shapes_at(0)
        assert len(ground) == 1
        basis = catalog.level_basis(0)
        assert len(basis) == 1
        assert basis.orbitals(0) == ((0, 0), (0, 0), (0, 0))


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

    @pytest.mark.parametrize("system", [(3, 2, FERMION), (2, 3, BOSON)])
    def test_generation_and_loading_expand_no_state(self, monkeypatch, system):
        def no_expansion(state):
            raise AssertionError(f"expanded {state}")

        monkeypatch.setattr(SlaterState, "expand", no_expansion)
        catalog = generate_shapes(*system)
        again = ShapeCatalog.from_json_obj(catalog.to_json_obj())
        assert again.to_json_obj() == catalog.to_json_obj()

    def test_find_by_id(self, catalog_32):
        assert catalog_32.find("4:0").grade == 4
        with pytest.raises(KeyError):
            catalog_32.find("9:9")


def _loaded_first_coefficient(catalog_32, text):
    """The (3,2,fermion) catalog loaded with the first coefficient of its
    shape 3:1, whose coefficients are "1" and "1", spelled as text."""
    obj = catalog_32.to_json_obj()
    shape = next(entry for entry in obj["shapes"] if entry["id"] == "3:1")
    shape["coeffs"][0] = text
    return ShapeCatalog.from_json_obj(obj)


ROW_CORRUPTIONS = [
    "float-exponent", "bool-exponent", "negative-exponent", "swapped", "repeated",
    "dropped", "three-components",
]


def _corrupt(row, kind, i, j, axis, grade):
    """Put one corruption into a basis row (a list of orbitals), in place;
    return the message the per-row reader gives for it at that fermion grade."""
    exponents = {"float-exponent": 1.5, "bool-exponent": True, "negative-exponent": -1}
    if kind in exponents:
        row[i][axis] = exponents[kind]
        if kind == "negative-exponent":
            return "negative exponent in orbital"
        return f"orbital exponent {exponents[kind]} is not an integer"
    if kind == "swapped":
        row[i], row[j] = row[j], row[i]
        return f"row {row} is not in canonical order"
    if kind == "repeated":
        row[j] = list(row[i])
        return "fermion orbitals must be pairwise distinct"
    if kind == "dropped":
        del row[i]
        return f"row {row} is not a state of grade {grade} (n=3, d=2, fermion)"
    row[i].append(0)
    return "orbitals of mixed dimension"


class TestCatalogLoading:
    """A valid catalog is read in batched passes; anything they refuse is
    read row by row, with the messages of the per-row reader."""

    @pytest.mark.parametrize("system", [(3, 2, FERMION), (4, 2, FERMION), (4, 2, BOSON)])
    def test_valid_catalogs_take_no_per_row_reader(self, monkeypatch, system):
        obj = generate_shapes(*system).to_json_obj()

        def refused(*args, **kwargs):
            raise AssertionError("a valid catalog was read row by row")

        monkeypatch.setattr(SlaterState, "from_orbitals", refused)
        monkeypatch.setattr(shapegen, "parse_fraction", refused)
        assert ShapeCatalog.from_json_obj(obj).to_json_obj() == obj

    @pytest.mark.parametrize("text", ["+1", " 1 ", "3/3", "1.0", "1e0", "01"])
    def test_coefficient_spellings_of_one(self, catalog_32, text):
        catalog = _loaded_first_coefficient(catalog_32, text)
        assert catalog.to_json_obj() == catalog_32.to_json_obj()
        assert {type(c) for s in catalog.shapes for c in s.coeffs.values()} == {int}

    @pytest.mark.parametrize(
        "text, message",
        [
            (1, "coefficient 1 is not a fraction string"),
            ("1/2", "coefficients are not canonical"),
            ("0x1", "Invalid literal for Fraction: '0x1'"),
            ("1/0", "coefficient '1/0' has a zero denominator"),
        ],
    )
    def test_refused_coefficient_spellings(self, catalog_32, text, message):
        with pytest.raises(ValueError, match=re.escape(f"catalog shape 3:1: {message}")):
            _loaded_first_coefficient(catalog_32, text)

    def test_a_bad_row_is_named_before_a_level_above_the_state_cap(self, catalog_32):
        obj = catalog_32.to_json_obj()
        row = next(entry for entry in obj["shapes"] if entry["id"] == "3:1")["basis"][0]
        row[0], row[1] = row[1], row[0]
        with pytest.raises(ValueError, match=re.escape(f"catalog shape 3:1: row {row} is not in")):
            ShapeCatalog.from_json_obj(obj, state_cap=1)

    @pytest.mark.parametrize("cap, grade, states", [(13, 4, 14), (5, 3, 6)])
    def test_a_valid_catalog_above_the_state_cap_names_the_grade(
        self, catalog_32, cap, grade, states
    ):
        # Grades 2, 3 and 4 hold 1, 6 and 14 states; the first listed
        # grade above the cap is named.
        obj = catalog_32.to_json_obj()
        with pytest.raises(StateCapExceeded) as refusal:
            ShapeCatalog.from_json_obj(obj, state_cap=cap)
        assert (refusal.value.grade, refusal.value.count, refusal.value.cap) == (grade, states, cap)
        assert ShapeCatalog.from_json_obj(obj, state_cap=14).to_json_obj() == obj

    def test_a_level_above_the_state_cap_is_named_before_its_count_table(
        self, catalog_32, monkeypatch
    ):
        # The count table through grade 4 would hold more entries than the
        # cap of 13 allows states, so the dimension series names grade 4,
        # of 14 states, without building it.
        monkeypatch.setattr(shapegen, "count_table", None)
        with pytest.raises(StateCapExceeded) as refusal:
            ShapeCatalog.from_json_obj(catalog_32.to_json_obj(), state_cap=13)
        assert (refusal.value.grade, refusal.value.count, refusal.value.cap) == (4, 14, 13)

    @pytest.mark.parametrize(
        "system, shape, grade, basis",
        [
            ((2, 1, BOSON), 0, 1500, [[[1500], [0]]]),
            ((2, 1, BOSON), 0, 1500, None),
            ((1, 3, FERMION), 0, 200, None),
            ((3, 2, FERMION), -1, 300, None),
        ],
        ids=["boson-state", "boson-row", "fermion-1x3", "fermion-3x2"],
    )
    def test_a_grade_above_the_degree_is_refused(self, monkeypatch, system, shape, grade, basis):
        # No shape lies above the shape polynomial's degree D, so a shape
        # moved to a far grade, as a state of it or with its rows unchanged,
        # is refused by its grade, and nothing is counted or numbered past D.
        catalog = generate_shapes(*system)
        obj, top = catalog.to_json_obj(), catalog.shape_poly.degree()
        obj["max_grade"] = grade
        obj["shapes"][shape].update(grade=grade, index=0, id=f"{grade}:0")
        if basis is not None:
            obj["shapes"][shape]["basis"] = basis

        def bounded(real, position):
            def call(*args):
                assert args[position] <= top, f"{real.__name__} through grade {args[position]}"
                return real(*args)

            return call

        monkeypatch.setattr(shapegen, "count_table", bounded(shapegen.count_table, 2))
        monkeypatch.setattr(shapegen, "level_dimension", bounded(shapegen.level_dimension, 2))
        monkeypatch.setattr(polycore.OrbitalCodes, "grow", bounded(polycore.OrbitalCodes.grow, 1))
        message = f"catalog shape {grade}:0: grade {grade} is outside 0..{top}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ShapeCatalog.from_json_obj(obj)

    def test_a_max_grade_above_the_degree_loads_as_written(self, catalog_32):
        # The bound is the lesser of max_grade and the degree: a file that
        # states a higher max_grade, with every shape within the degree,
        # loads and writes back the same JSON.
        obj = catalog_32.to_json_obj()
        obj["max_grade"] = catalog_32.shape_poly.degree() + 5
        assert ShapeCatalog.from_json_obj(obj).to_json_obj() == obj

    @settings(max_examples=60)
    @given(st.data())
    def test_one_corrupted_row_is_named_by_the_per_row_reader(self, catalog_32, data):
        obj = catalog_32.to_json_obj()
        shape = data.draw(st.sampled_from(obj["shapes"]), label="shape")
        row = data.draw(st.sampled_from(shape["basis"]), label="row")
        kind = data.draw(st.sampled_from(ROW_CORRUPTIONS), label="kind")
        i, j = sorted(data.draw(st.permutations(range(3)), label="orbitals")[:2])
        axis = data.draw(st.integers(0, 1), label="axis")
        message = _corrupt(row, kind, i, j, axis, shape["grade"])
        with pytest.raises(ValueError) as refusal:
            ShapeCatalog.from_json_obj(obj)
        assert str(refusal.value) == f"catalog shape {shape['id']}: {message}"


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
        monkeypatch.setattr(products.Products, "take", with_duplicate(products.Products.take))
        with pytest.raises(
            InternalConsistencyError, match="grade 3 are not free: 3 vectors have rank 2"
        ):
            generate_shapes(3, 2, FERMION)
