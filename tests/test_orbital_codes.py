"""Orbital codes, level code arrays, the count table's ranks, and the
Pieri images and axis transport read from code tables.

The table routes, products.apply_maps with a shift or permutation code
map, are compared with pieri_oracle, which computes the same levels,
images and transports over orbital tuples: every level of six ladder
systems, and for n <= 4, d <= 3, both statistics, every factor
e_m^[k](axis) with k <= 3, and random states of random levels.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shapes import deflation, products
from shapes.counting import BOSON, FERMION, level_dimension, shape_polynomial
from shapes.deflation import LevelBasis
from shapes.errors import InternalConsistencyError
from shapes.polycore import (
    OrbitalCodes,
    canonical_rows,
    count_table,
    enumerate_basis,
    orbital_codes,
    orbital_key,
)

import pieri_oracle

SYSTEMS = [(n, d, stat) for n in range(1, 5) for d in range(1, 4) for stat in (FERMION, BOSON)]
LADDER = [
    (3, 2, FERMION),
    (4, 2, FERMION),
    (3, 3, FERMION),
    (4, 2, BOSON),
    (5, 2, FERMION),
    (3, 4, FERMION),
]
# Levels larger than this are not built, as sources or as targets.
LEVEL_CAP = 2500


def orbitals(d, max_degree=6):
    return st.tuples(*[st.integers(0, max_degree)] * d).filter(lambda o: sum(o) <= max_degree)


@st.composite
def levels(draw):
    """(n, d, statistics, grade) of a non-empty level of at most LEVEL_CAP states."""
    n, d, stat = draw(st.sampled_from(SYSTEMS), label="system")
    grade = draw(st.integers(0, 9), label="grade")
    assume(0 < level_dimension(n, d, grade, stat) <= LEVEL_CAP)
    return n, d, stat, grade


class TestCodes:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(orbitals(d), orbitals(d))))
    def test_code_order_is_the_canonical_order(self, pair):
        a, b = pair
        codes = OrbitalCodes(len(a))
        codes.grow(max(sum(a), sum(b)))
        code_a, code_b = codes.index[a], codes.index[b]
        assert (code_a < code_b) == (orbital_key(a) < orbital_key(b))
        assert (code_a == code_b) == (a == b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.integers(1, 4), st.data())
    def test_codes_do_not_change_as_the_table_grows(self, d, low, more, data):
        codes = OrbitalCodes(d)
        codes.grow(low)
        before = dict(codes.index)
        k, axis = data.draw(st.integers(1, 3)), data.draw(st.integers(0, d - 1))
        shift = list(codes.shift(k, axis, low))
        perm = tuple(data.draw(st.permutations(range(d))))
        permutation = list(codes.permutation(perm, low))
        codes.grow(low + more)
        assert {o: codes.index[o] for o in before} == before
        assert codes.shift(k, axis, low + more)[: len(shift)].tolist() == shift
        assert codes.permutation(perm, low + more)[: len(permutation)].tolist() == permutation
        assert codes.shift(k, axis, low).dtype == codes.permutation(perm, low).dtype == np.int64
        top = codes.degrees[-1]
        fresh = OrbitalCodes(d)
        fresh.grow(top)
        orbital_codes(d).grow(top)
        assert fresh.orbitals == codes.orbitals == orbital_codes(d).orbitals[: len(codes.orbitals)]
        assert codes.orbitals == sorted(codes.orbitals, key=orbital_key)
        assert codes.degrees == [sum(o) for o in codes.orbitals]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(orbitals(d), min_size=1, max_size=5)))
    def test_code_rows_and_decode_round_trip(self, orbs):
        codes = OrbitalCodes(len(orbs[0]))
        top = max(map(sum, orbs))
        (row,) = codes.code_rows([orbs], len(orbs), top).tolist()
        assert codes.decode(row) == tuple(orbs)
        assert [codes.index[o] for o in orbs] == row
        assert [codes.orbitals[c] for c in row] == orbs

    def test_code_rows_of_other_dimensions_are_no_codes(self):
        # An orbital of another dimension, or with a negative exponent, codes
        # at or above the codes of the degree asked for, which no state holds.
        codes = OrbitalCodes(2)
        limit = codes.grow(2)
        rows = codes.code_rows([[(1, 0, 0)], [(1, -1)], [(1, 1)]], 1, 2)
        assert rows[:, 0].tolist() == [limit, limit, codes.index[1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(levels())
    def test_levels_decode_to_the_orbital_enumeration(self, level):
        n, d, stat, grade = level
        states, _index = pieri_oracle.orbital_level(n, d, grade, stat)
        codes = orbital_codes(d)
        assert [codes.decode(s) for s in enumerate_basis(n, d, grade, stat).tolist()] == list(states)
        basis = LevelBasis(n, d, grade, stat)
        assert [basis.orbitals(i) for i in range(len(basis))] == list(states)
        assert all(basis.locate(s) == i for i, s in enumerate(states))
        identity = [list(range(len(basis))), [1] * len(basis)]
        assert [a.tolist() for a in basis.locate_signed(basis.code_array)] == identity

    @settings(max_examples=80, deadline=None)
    @given(levels(), st.integers(1, 3), st.data())
    def test_locate_signed_gives_the_phase_of_canonical_rows(self, level, columns, data):
        # Rows of random states, each in a random order, in a (rows, columns,
        # n) batch as apply_maps builds them; some fermion rows are given
        # a repeated code, which is no state and has phase 0.
        n, d, stat, grade = level
        basis = LevelBasis(n, d, grade, stat)
        fermion = stat is FERMION
        count = columns * data.draw(st.integers(1, 4), label="rows")
        states = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=count, max_size=count))
        rows, expected = [], []
        for i in states:
            row = data.draw(st.permutations(basis.code_array[i].tolist()))
            if fermion and n > 1 and data.draw(st.booleans(), label="repeat"):
                a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
                row[b] = row[a]
            sign = canonical_rows(row, fermion)[1]
            rows.append(row)
            expected.append((i, sign) if sign else (-1, 0))
        batch = np.array(rows, dtype=np.int64).reshape(-1, columns, n)
        indices, phases = basis.locate_signed(batch)
        assert indices.shape == phases.shape == (count // columns, columns)
        assert list(zip(indices.ravel().tolist(), phases.ravel().tolist())) == expected

    def test_locate_signed_names_a_row_that_is_no_state(self):
        basis = LevelBasis(3, 2, 4, FERMION)
        rows = basis.code_array[:2].copy()
        rows[1] = rows[0] + 1
        with pytest.raises(InternalConsistencyError, match="are not a state of grade 4"):
            basis.locate_signed(rows)


class TestLevelArrays:
    @pytest.mark.parametrize("n, d, stat", LADDER)
    def test_enumeration_matches_the_orbital_recursion(self, n, d, stat):
        codes = orbital_codes(d)
        for grade in range(shape_polynomial(n, d, stat).degree() + 1):
            states, _index = pieri_oracle.orbital_level(n, d, grade, stat)
            rows = enumerate_basis(n, d, grade, stat)
            assert rows.dtype == np.int32 and rows.shape == (len(states), n), grade
            assert [codes.decode(r) for r in rows.tolist()] == list(states), grade

    def test_a_count_other_than_the_dimension_is_named(self, monkeypatch):
        real = deflation.enumerate_basis
        monkeypatch.setattr(deflation, "enumerate_basis", lambda *args: real(*args)[1:])
        with pytest.raises(
            InternalConsistencyError,
            match=r"enumerated 13 states at grade 4 but the dimension series predicts 14 ",
        ):
            LevelBasis(3, 2, 4, FERMION)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda rows: rows.__setitem__(3, rows[2]), id="repeated-row"),
            pytest.param(lambda rows: rows.__setitem__([2, 3], rows[[3, 2]]), id="out-of-order"),
            pytest.param(lambda rows: rows.__setitem__(-1, rows[-1].max()), id="repeated-code"),
        ],
    )
    @pytest.mark.parametrize("n, d, grade, stat", [(3, 2, 4, FERMION), (3, 3, 5, BOSON)])
    def test_rows_that_are_not_distinct_states_in_order_are_named(
        self, monkeypatch, edit, n, d, grade, stat
    ):
        real = deflation.enumerate_basis

        def enumerate_basis(*args):
            rows = real(*args)
            edit(rows)
            return rows

        monkeypatch.setattr(deflation, "enumerate_basis", enumerate_basis)
        with pytest.raises(
            InternalConsistencyError,
            match=f"grade {grade} states are not distinct and in enumeration order",
        ):
            LevelBasis(n, d, grade, stat)

    def test_what_is_no_state_is_not_found(self):
        basis = LevelBasis(3, 2, 4, FERMION)
        state = basis.orbitals(5)
        assert basis.locate(state) == 5
        assert basis.locate(state[::-1]) is None  # not in canonical order
        assert basis.locate(state[:2]) is None  # two orbitals, not three
        assert basis.locate(((3, 1), (1, 0), (0, 0))) is None  # grade 5
        assert basis.locate(((5, 0), (0, 0), (0, 0))) is None  # degree 5 > grade
        assert basis.locate(((1, 0, 0), (0, 1, 0), (0, 0, 0))) is None  # three axes
        assert basis.locate(((2, 0), (2, 0), (0, 0))) is None  # Pauli
        repeated = [basis.codes.index[o] for o in ((2, 0), (2, 0), (0, 0))]
        rows = np.array([repeated, basis.code_array[5][::-1]])
        assert basis.find_codes(rows).tolist() == [-1, 5]
        assert basis.find_orbitals([state, state[::-1], ()]).tolist() == [5, -1, -1]
        empty = LevelBasis(3, 2, 1, FERMION)
        assert len(empty) == 0 and empty.code_array.shape == (0, 3)
        assert empty.locate(((1, 0), (0, 0), (0, 0))) is None


# Ways to make a row of codes from a state of a level: kept as it is, one
# code replaced (so the degree sum may change), a code repeated, two codes
# out of order, the first code at or above the count table's codes, or a
# row of random codes.
ROW_EDITS = ["state", "degree", "repeated", "order", "beyond", "random"]


class TestCountTable:
    """The count table ranks rows where no level is built (the catalog
    loader), and must agree with the level's keys wherever both apply."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(SYSTEMS), st.integers(0, 8), st.integers(0, 2), st.data())
    def test_ranks_are_the_level_indices(self, system, grade, extra, data):
        n, d, stat = system
        table = count_table(n, d, grade + extra, stat)
        rows = enumerate_basis(n, d, grade, stat).astype(np.int64)
        assert table.rank(rows, grade).tolist() == list(range(len(rows)))
        assert table.dimension(grade) == level_dimension(n, d, grade, stat)

        codes = orbital_codes(d)
        top, above = codes.grow(grade + extra), codes.grow(grade + extra + 1)
        states, probes = rows.tolist(), []
        for edit in data.draw(st.lists(st.sampled_from(ROW_EDITS), min_size=1, max_size=12)):
            if edit == "random" or not states:
                probes.append(data.draw(st.lists(st.integers(0, above - 1), min_size=n, max_size=n)))
                continue
            probe = list(data.draw(st.sampled_from(states)))
            j = data.draw(st.integers(0, n - 1))
            if edit == "degree":
                probe[j] = data.draw(st.integers(0, top - 1))
                probe.sort(reverse=True)
            elif edit == "repeated":
                probe[j] = probe[j - 1]
            elif edit == "order":
                probe[j], probe[j - 1] = probe[j - 1], probe[j]
            elif edit == "beyond":
                probe[0] = data.draw(st.integers(top, above - 1))
            probes.append(probe)
        found = LevelBasis(n, d, grade, stat).find_orbitals([codes.decode(p) for p in probes])
        ranked = table.rank(np.array(probes, dtype=np.int64).reshape(-1, n), grade)
        assert ranked.tolist() == found.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SYSTEMS), st.integers(0, 6), st.data())
    def test_one_call_with_a_grade_per_row_equals_one_call_per_grade(self, system, top, data):
        # Rows of every level through the top, each labelled with its own
        # grade or with another one, at which it is no state (-1).
        n, d, stat = system
        table = count_table(n, d, top, stat)
        levels = [enumerate_basis(n, d, g, stat).astype(np.int64) for g in range(top + 1)]
        picks = data.draw(
            st.lists(
                st.tuples(st.integers(0, top), st.integers(0, 10**6), st.integers(0, top)),
                max_size=20,
            )
        )
        picks = [(g, i % len(levels[g]), label) for g, i, label in picks if len(levels[g])]
        rows = np.array([levels[g][i] for g, i, _ in picks], dtype=np.int64).reshape(-1, n)
        labels = np.array([label for _, _, label in picks], dtype=np.int64)
        expected = np.full(len(rows), -2)
        for label in set(labels.tolist()):
            expected[labels == label] = table.rank(rows[labels == label], label)
        assert table.rank(rows, labels).tolist() == expected.tolist()
        assert all(
            (rank == i) == (label == g)
            for (g, i, label), rank in zip(picks, table.rank(rows, labels).tolist())
        )

    @pytest.mark.parametrize(
        "n, grade, codes, reach", [(16, 45, 21, 5), (24, 88, 28, 6), (3, 4, 10, 3), (3, 0, 1, 0)]
    )
    def test_a_fermion_table_spans_the_codes_a_state_can_hold(self, n, grade, codes, reach):
        # No code of a state through the grade has a degree above the grade
        # less the n - 1 lowest codes' degrees: (16, 2) at its ground grade
        # 45 spans the 21 codes of degree <= 5, not the 1081 of degree <= 45.
        table = count_table(n, 2, grade, FERMION)
        assert (table.reach, len(table.degrees), table.table.dtype) == (reach, codes, np.int64)
        assert table.dimension(grade) == level_dimension(n, 2, grade, FERMION)

    def test_a_boson_table_reaches_its_grade(self):
        table = count_table(4, 2, 6, BOSON)
        assert (table.reach, len(table.degrees)) == (6, orbital_codes(2).grow(6))

    @pytest.mark.parametrize("n, grade", [(16, 45), (24, 88)])
    def test_many_fermion_ranks_are_the_level_indices(self, n, grade):
        rows = LevelBasis(n, 2, grade, FERMION).code_array.astype(np.int64)
        ranks = count_table(n, 2, grade, FERMION).rank(rows, grade)
        assert ranks.tolist() == list(range(len(rows)))


def carried(target, source, code_map, m, vectors):
    """{state index: coeff} vectors of source through one pass of apply_maps."""
    passes = [(source, code_map, m, len(vectors))]
    return products.apply_maps(target, passes, products.Batch.of(vectors)).dicts()


class TestTableRoutes:
    @settings(max_examples=80, deadline=None)
    @given(levels(), st.data())
    def test_factor_images_match_the_orbital_route(self, level, data):
        # The image of a unit vector through a shift map, its equal targets
        # summed and zeros dropped, is the state's image.
        n, d, stat, grade = level
        assume(level_dimension(n, d, grade + 1, stat) <= LEVEL_CAP)
        source = LevelBasis(n, d, grade, stat)
        states = data.draw(st.lists(st.integers(0, len(source) - 1), min_size=1, max_size=3))
        compared = 0
        for m in range(1, n + 1):
            for k in range(1, 4):
                if level_dimension(n, d, grade + m * k, stat) > LEVEL_CAP:
                    continue
                target = LevelBasis(n, d, grade + m * k, stat)
                for axis in range(d):
                    code_map = source.codes.shift(k, axis, grade)
                    images = carried(target, source, code_map, m, [{i: 1} for i in states])
                    for i, ours in zip(states, images):
                        expected = pieri_oracle.factor_image(n, d, grade, stat, (m, k, axis), i)
                        assert ours == expected, (m, k, axis, i)
                        compared += 1
        assert compared

    @settings(max_examples=80, deadline=None)
    @given(levels(), st.data())
    def test_axis_transport_matches_the_orbital_route(self, level, data):
        n, d, stat, grade = level
        basis = LevelBasis(n, d, grade, stat)
        vec = data.draw(
            st.dictionaries(
                st.integers(0, len(basis) - 1), st.integers(-5, 5).filter(bool), min_size=1
            )
        )
        for perm in permutations(range(d)):
            expected = pieri_oracle.permute_axes(n, d, grade, stat, vec, perm)
            code_map = basis.codes.permutation(perm, grade)
            assert carried(basis, basis, code_map, n, [vec]) == [expected], perm
