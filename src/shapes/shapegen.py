"""Constructive generation of all N!^(d-1) shapes, level by level.

Per grade, the trivial span is every lower shape times every Euler-boson
monomial of the complementary degree; the new shapes are the orthogonal
complement of that span, with the level's Slater/permanent states taken as
orthonormal coordinates.  The products are formed directly over state
indices, never as expanded polynomials: one Euler factor e_m^[k](axis)
maps each state of a level to a signed sum of states of the level m*k
higher (the Pieri rule for elementary symmetric functions).  The
products module forms each (shape, monomial) product once and plans which
sector each lies in.

A factor raises one axis's degree total by m*k, so a product's sector
(LevelBasis.sectors) is known before any arithmetic: its shape's sector
plus the monomial's per-axis degrees.  The span splits into independent
blocks, one per (grade, sector), each settled on its own; a product with
a state outside its predicted sector is an InternalConsistencyError.  A
block is one CSR triple from Products.take on: its products' entries as
positions in the sector's states and integer coefficients, and each
product's bounds in them.  It is settled by a rank certificate
(_certify): LAPACK finds its free columns and an approximate inverse of
its pivot columns in float64; the inverse proves the pivot submatrix
nonsingular in exact integer arithmetic (Rump's verification method);
and each null vector is rounded to fractions with small denominators and
kept only if its integer dot product with every product is 0.  The null vectors are the canonical
complement basis.  If a step is not proven, an entry reaches 2^53 or the
sector has more than DENSE_SECTOR_CAP states, the block goes to the exact
integer echelon instead.  Three laws are hard assertions at every grade:
the products are linearly independent (the free-module statement), the
complement dimension matches the shape polynomial coefficient, and each
sector's complement dimension matches sector_shape_counts.

Permuting the d axes maps the Hilbert space to itself, sector s to its
image, shapes to shapes and products to products (generate_shapes gives
the argument; the secondary invariants are equivariant under a group that
normalizes the one they belong to, as in Sturmfels, Algorithms in
Invariant Theory, ch. 2, and Derksen & Kemper, Computational Invariant
Theory, ch. 3).  So generation forms and settles only one sector per
orbit, the one whose per-axis degrees do not increase, and carries its
rank and its shapes to the other sectors of the orbit, brought to the
canonical basis by Gauss-Jordan elimination in Python integers; the
catalog is byte for byte the one settling every sector would give.
verify_span still forms and settles every sector, and so checks
generation independently.
"""

from __future__ import annotations

import ctypes
import glob
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain
from math import comb, gcd, lcm

import numpy as np

from .counting import (
    GradedQPolynomial,
    Statistics,
    FERMION,
    level_dimension,
    sector_shape_counts,
    shape_polynomial,
    total_shape_count,
)
from .deflation import LevelBasis
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import (
    SlaterState,
    count_table,
    format_fraction,
    json_field,
    json_int,
    json_list,
    orbital_codes,
    parse_fraction,
    sector_of,
)
from .products import Products, products_through

DEFAULT_STATE_CAP = 100_000
STATE_CAP_ENV_VAR = "SHAPES_STATE_CAP"

# Sectors with more states go to the exact echelon.  At the cap, one
# block's certificate peaks at about 165 MB: the float64 block, the copies
# LAPACK makes of it and the orthogonal factor of its QR (measured on a
# 2040 x 2048 block; about 135 MB for a square block, which needs no QR).
DENSE_SECTOR_CAP = 2048
# The certificates (_certify) scale an approximate inverse by this power of
# two before rounding it (_is_nonsingular).
_PROOF_SCALE = 2**20
# Null vector entries, relative to the 1 at the free column, are rounded to
# fractions with denominators up to this bound: a canonical coefficient is
# at most 24 on every catalog measured.
DENOMINATOR_BOUND = 2**10
# Float guesses: refusing what they get wrong costs only a fallback.  q * x
# within this of an integer is that integer.
_ROUNDING_TOLERANCE = 1e-6
_EPS = np.finfo(float).eps


def default_state_cap():
    """Configured level-size guard; overridable via SHAPES_STATE_CAP.

    Raises ValueError, naming the variable, if it is set to anything but a
    positive integer.
    """
    value = os.environ.get(STATE_CAP_ENV_VAR)
    if not value:
        return DEFAULT_STATE_CAP
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(
            f"{STATE_CAP_ENV_VAR} must be a positive integer number of states, got {value!r}"
        ) from None
    return check_state_cap(cap, STATE_CAP_ENV_VAR)


def check_state_cap(cap, name="state cap"):
    """Return cap if it is a positive number of states, else raise ValueError."""
    if cap <= 0:
        raise ValueError(f"{name} must be a positive number of states, got {cap}")
    return cap


def _canonical_vector(vec):
    """A sparse exact vector scaled to integers with content 1 and the entry
    at the lowest index positive.

    Integer input that is already in that form is returned as is.
    """
    try:
        content = gcd(*vec.values())
    except TypeError:  # rational entries: clear the denominators first
        scale = lcm(*(Fraction(c).denominator for c in vec.values()))
        vec = {i: int(c * scale) for i, c in vec.items()}
        content = gcd(*vec.values())
    if vec and vec[min(vec)] < 0:
        content = -content
    if content in (0, 1):
        return vec
    return {i: v // content for i, v in vec.items()}


def _eliminate(vec, p, row):
    """Clear the entry at p of the sparse integer vector vec with row, in place.

    When row[p] divides vec[p], the multiple of row is subtracted as is;
    else vec is first scaled by row[p] / gcd(vec[p], row[p]), so vec stays
    a multiple of what exact rational elimination would hold.  Zeros are
    dropped.
    """
    a, b = vec[p], row[p]
    f, r = divmod(a, b)
    if r:
        g = gcd(a, b)
        scale, f = b // g, a // g
        for c in vec:
            vec[c] *= scale
    for c, v in row.items():
        nv = vec.get(c, 0) - f * v
        if nv:
            vec[c] = nv
        else:
            del vec[c]


class _Echelon:
    """Incremental exact row echelon over the integers.

    Pivoting is by position only (first nonzero coordinate); rows are kept
    content-stripped with a positive pivot, so the structure is deterministic
    for a given insertion order.
    """

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec):
        """Reduce a sparse integer vector against the rows; store if nonzero.

        Returns the new pivot position, or None if the vector was dependent.
        The argument is not modified.  Each step only removes the pivot
        entry (_eliminate).  Every intermediate vector is a multiple of the
        one the content-stripped elimination would hold, so the row stored
        (content 1, positive pivot) is the same.
        """
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                vec = _canonical_vector(vec)
                self.rows[p] = vec
                return p
            _eliminate(vec, p, row)
        return None

    def nullspace(self):
        """Canonical basis of {w : rows . w = 0}, one vector per free column.

        Each vector has a 1 at its free column and is back-substituted
        through the pivot rows, then scaled to integer content 1 with the
        first nonzero entry positive.  Ordered by free column ascending.
        """
        pivots = sorted(self.rows)
        pivot_set = set(pivots)
        out = []
        for f in range(self.ambient_dim):
            if f in pivot_set:
                continue
            x = {f: Fraction(1)}
            for p in reversed([p for p in pivots if p < f]):
                row = self.rows[p]
                s = Fraction(0)
                for c, v in row.items():
                    if c != p:
                        xc = x.get(c)
                        if xc is not None:
                            s += v * xc
                if s:
                    x[p] = -s / row[p]
            out.append(_canonical_vector(x))
        return out


@dataclass(frozen=True)
class ShapeRecord:
    """One shape: a grade, a stable id, and its exact coefficient vector.

    Coefficients are sparse over the level basis of the shape's grade, in
    canonical normalized form (integer values, content 1, first nonzero
    positive).  The statistics are the catalog's.
    """

    grade: int
    index: int
    coeffs: dict

    @property
    def id(self):
        return f"{self.grade}:{self.index}"


@dataclass
class ShapeCatalog:
    """All shapes of (n, d, statistics) up to max_grade, grouped by grade."""

    n: int
    d: int
    statistics: Statistics
    shape_poly: GradedQPolynomial
    max_grade: int
    shapes: list
    state_cap: int = DEFAULT_STATE_CAP
    _bases: dict = field(default_factory=dict, repr=False)

    def level_basis(self, grade):
        """The level of a grade, built on first read and kept."""
        basis = self._bases.get(grade)
        if basis is None:
            basis = LevelBasis(
                self.n, self.d, grade, self.statistics, max_states=self.state_cap
            )
            self._bases[grade] = basis
        return basis

    def shapes_at(self, grade):
        return [s for s in self.shapes if s.grade == grade]

    def find(self, shape_id):
        for s in self.shapes:
            if s.id == shape_id:
                return s
        raise KeyError(f"no shape with id {shape_id!r}")

    @property
    def total_count(self):
        return len(self.shapes)

    def is_complete(self):
        return (
            self.max_grade >= self.shape_poly.degree()
            and self.total_count == total_shape_count(self.n, self.d)
        )

    def to_json_obj(self):
        shape_objs = []
        for s in self.shapes:
            basis = self.level_basis(s.grade)
            indices = sorted(s.coeffs)
            shape_objs.append(
                {
                    "id": s.id,
                    "grade": s.grade,
                    "index": s.index,
                    "basis": [[list(orb) for orb in basis.orbitals(i)] for i in indices],
                    "coeffs": [format_fraction(s.coeffs[i]) for i in indices],
                }
            )
        return {
            "format_version": "1",
            "kind": "shape_catalog",
            "n": self.n,
            "d": self.d,
            "statistics": self.statistics.value,
            "max_grade": self.max_grade,
            "shape_polynomial": self.shape_poly.to_json_obj(),
            "shapes": shape_objs,
        }

    @classmethod
    def from_json_obj(cls, obj, state_cap=None):
        """Load a catalog as to_json_obj writes it, checking what it holds.

        Raises ValueError if obj is not an object; on a wrong format_version
        or kind, an n, d or max_grade that is not an integer in range, no
        statistics, or shapes that is not a list of objects; naming the
        shape, on a missing grade or index (by its position), a repeated id,
        a non-integer grade or index or a shape that _read_rows or
        _read_coeffs rejects; on a shape_polynomial other than
        shape_polynomial(n, d, statistics); naming the grade, on a grade up
        to max_grade and the shape polynomial's degree whose number of
        shapes is not the polynomial's coefficient; and, naming the shape,
        on shapes not listed by grade, then by index from 0, or an id other
        than "grade:index".

        A valid file is read in batched passes: every shape's grade is
        bounded and its rows are checked in whole-list passes (_read_rows),
        all rows are ranked in one call (_locate), which builds no level,
        and the coefficients are read as integers (_read_coeffs).  Only a
        file those passes refuse is read row by row (_check_rows), so an
        error names the first bad row in file order, as reading each row on
        its own would.  The shape polynomial and the shape counts are
        checked last.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a catalog is a JSON object, got {type(obj).__name__}")
        for key, expected in (("format_version", "1"), ("kind", "shape_catalog")):
            if obj.get(key) != expected:
                raise ValueError(f"catalog {key} is {obj.get(key)!r}, expected {expected!r}")
        n, d = json_int(obj, "n", 1), json_int(obj, "d", 1)
        max_grade = json_int(obj, "max_grade", 0)
        stat = Statistics.parse(json_field(obj, "statistics", "catalog"))
        state_cap = default_state_cap() if state_cap is None else check_state_cap(state_cap)
        poly = shape_polynomial(n, d, stat)
        catalog = cls(n, d, stat, poly, max_grade, shapes=[], state_cap=state_cap)
        ids = set()
        read = []
        try:
            for position, entry in enumerate(json_list(obj, "shapes")):
                if not isinstance(entry, dict):
                    raise ValueError(f"catalog shapes entry {entry!r} is not an object")
                owner = f"catalog shapes entry {position}"
                grade, index = json_field(entry, "grade", owner), json_field(entry, "index", owner)
                shape_id = f"{grade}:{index}"
                try:
                    json_int(entry, "grade", 0)
                    json_int(entry, "index", 0)
                    if shape_id in ids:
                        raise ValueError("listed twice")
                    ids.add(shape_id)
                    well_formed = catalog._read_rows(grade, entry)
                except ValueError as exc:
                    raise ValueError(f"catalog shape {shape_id}: {exc}") from None
                read.append((grade, index, entry))
                if not well_formed:
                    catalog._check_rows(read[-1:])
            located = catalog._locate(read)
        except (ValueError, StateCapExceeded):
            # A bad row of an earlier shape, which the batched checks let
            # through, is named first.
            catalog._check_rows(read)
            raise
        if any(min(indices, default=0) < 0 for indices, _mixed in located):
            catalog._check_rows(read)
        for (grade, index, entry), (indices, mixed) in zip(read, located):
            try:
                coeffs = catalog._read_coeffs(grade, entry, indices, mixed)
            except ValueError as exc:
                raise ValueError(f"catalog shape {grade}:{index}: {exc}") from None
            catalog.shapes.append(ShapeRecord(grade, index, coeffs))
        if obj.get("shape_polynomial") != poly.to_json_obj():
            raise ValueError(f"catalog shape_polynomial is not that of n={n}, d={d}, {stat.value}")
        found = Counter(s.grade for s in catalog.shapes)
        for grade in sorted(found.keys() | set(range(min(max_grade, poly.degree()) + 1))):
            if found[grade] != poly.coefficient(grade):
                raise ValueError(
                    f"catalog shape count at grade {grade} is {found[grade]}, "
                    f"expected {poly.coefficient(grade)}"
                )
        places = ((g, i) for g in sorted(found) for i in range(found[g]))
        for position, ((grade, index, entry), place) in enumerate(zip(read, places)):
            if (grade, index) != place:
                raise ValueError(
                    f"catalog shape {grade}:{index}: listed at position {position}, where shape "
                    f"{place[0]}:{place[1]} belongs (by grade, then by index from 0)"
                )
            if entry.get("id") != f"{grade}:{index}":
                raise ValueError(
                    f"catalog shape {grade}:{index}: id is {entry.get('id')!r}, "
                    f"expected '{grade}:{index}'"
                )
        return catalog

    def _read_rows(self, grade, entry):
        """Whether a stored shape's basis rows pass the whole-list checks.

        The grade must lie in 0..max_grade and no higher than the shape
        polynomial's degree, above which no shape lies, and basis and coeffs
        must be lists of one length, else ValueError.  The rows pass if they
        are lists of n lists of d exponents, each exactly an int (not a
        bool) and >= 0; _locate checks their order.
        """
        top = min(self.max_grade, self.shape_poly.degree())
        if not 0 <= grade <= top:
            raise ValueError(f"grade {grade} is outside 0..{top}")
        rows, texts = json_list(entry, "basis"), json_list(entry, "coeffs")
        if len(rows) != len(texts):
            raise ValueError(f"{len(rows)} basis rows but {len(texts)} coefficients")
        if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {self.n}):
            return False
        orbitals = list(chain.from_iterable(rows))
        if not (set(map(type, orbitals)) <= {list} and set(map(len, orbitals)) <= {self.d}):
            return False
        exponents = list(chain.from_iterable(orbitals))
        return set(map(type, exponents)) <= {int} and min(exponents, default=0) >= 0

    def _check_rows(self, read):
        """Check each basis row of the shapes read, (grade, index, entry)
        each, on its own (SlaterState.from_orbitals), in file order; raise
        ValueError naming the first bad row.

        Every row must be a list of orbitals in canonical order: a row in
        another order is the state times the phase of its sort, which the
        file does not record.  The batched checks let through such a row,
        and a repeated fermion orbital; a row of another length or
        dimension passes here and is then no state of the level.
        """
        for grade, index, entry in read:
            for orbitals in entry["basis"]:
                try:
                    if not (isinstance(orbitals, list) and all(isinstance(o, list) for o in orbitals)):
                        raise ValueError(f"row {orbitals!r} is not a list of orbitals")
                    state = SlaterState.from_orbitals(orbitals, self.statistics)
                    if list(state.orbitals) != [tuple(o) for o in orbitals]:
                        raise ValueError(f"row {orbitals} is not in canonical order")
                except ValueError as exc:
                    raise ValueError(f"catalog shape {grade}:{index}: {exc}") from None

    def _locate(self, read):
        """Per shape read, (grade, index, entry) each: its rows' state
        indices, -1 for a row that is no state in canonical order, and
        whether its rows lie in more than one sector.  No level is built:
        all rows are coded (OrbitalCodes.code_rows) and ranked in one call
        each (CountTable.rank) by the count table through the top grade
        read, which _read_rows bounds by the shape polynomial's degree.  The
        table's dimensions check the state cap grade by grade (the dimension
        series does so first when the table would hold more entries than the
        cap allows states), and the rows' sectors are summed from the
        per-code axis degrees.
        """
        grades = [grade for grade, _index, _entry in read]
        shapes = [entry["basis"] for _grade, _index, entry in read]
        lengths = np.fromiter(map(len, shapes), dtype=np.int64, count=len(shapes))
        top, levels = max(grades, default=0), dict.fromkeys(grades)
        if (self.n + 1) * comb(top + self.d, self.d) * (top + 1) > self.state_cap:
            for grade in levels:
                dimension = level_dimension(self.n, self.d, grade, self.statistics)
                if dimension > self.state_cap:
                    raise StateCapExceeded(grade, dimension, self.state_cap)
        table = count_table(self.n, self.d, top, self.statistics)
        for grade in levels:
            if table.dimension(grade) > self.state_cap:
                raise StateCapExceeded(grade, table.dimension(grade), self.state_cap)
        codes = orbital_codes(self.d)
        rows = codes.code_rows(list(chain.from_iterable(shapes)), self.n, top)
        indices = table.rank(rows, np.repeat(np.array(grades, dtype=np.int64), lengths))
        # A row that is no state (-1) is refused before its sector is read.
        sectors = codes.axis_degrees(top)[np.where(indices[:, None] < 0, 0, rows)].sum(axis=1)
        ends = np.cumsum(lengths)
        off = (sectors != sectors[np.repeat(ends - lengths, lengths)]).any(axis=1)
        before = np.concatenate(([0], np.cumsum(off)))  # off rows before each row
        mixed = (before[ends] > before[ends - lengths]).tolist()
        indices = indices.tolist()
        return [*zip(map(indices.__getitem__, map(slice, ends - lengths, ends)), mixed)]

    def _read_coeffs(self, grade, entry, indices, mixed):
        """A stored shape's {state index: coeff}, in linear time.

        indices are its rows' indices in the level of the given grade, -1
        for a row that is not a state of it, and mixed whether they lie in
        more than one sector (_locate).  Every row must be a distinct state,
        all rows must lie in one sector, as generation assumes, and the
        coefficients must be canonical as ShapeRecord documents: integers,
        none zero, content 1, the entry at the lowest state index positive.
        Coefficient strings are read by int(); only when one is refused, or
        a row is no state or repeated, is each row read on its own, with
        parse_fraction.
        """
        texts = entry["coeffs"]
        try:
            coeffs = dict(zip(indices, map(int, texts))) if set(map(type, texts)) <= {str} else {}
        except ValueError:
            coeffs = {}
        if len(coeffs) < len(indices) or min(indices, default=0) < 0:
            coeffs = {}
            for orbitals, text, i in zip(entry["basis"], texts, indices):
                if i < 0:
                    raise ValueError(
                        f"row {orbitals} is not a state of grade {grade} "
                        f"(n={self.n}, d={self.d}, {self.statistics.value})"
                    )
                if i in coeffs:
                    raise ValueError(f"row {orbitals} is listed twice")
                coeffs[i] = parse_fraction(text)
        if mixed:
            sectors = set(map(sector_of, entry["basis"]))
            raise ValueError(f"rows lie in {len(sectors)} sectors {sorted(sectors)}, not one")
        canonical = _canonical_vector(coeffs)
        if not coeffs or 0 in coeffs.values() or coeffs != canonical:
            raise ValueError(
                "coefficients are not canonical (integers, none zero, content 1, "
                "lowest-index entry positive)"
            )
        return canonical


def _dense_block(block, dim):
    """A block's products as the rows of a dense float64 block, by one scatter.

    block is (positions, integer coefficients, bounds): product j holds the
    entries bounds[j]:bounds[j + 1].  None if an entry reaches 2^53, past
    which float64 does not hold every integer.
    """
    positions, coeffs, bounds = block
    if np.abs(coeffs).max(initial=0) >= 2**53:
        return None
    a = np.zeros((len(bounds) - 1, dim))
    a[np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)), positions] = coeffs
    return a


def _free_columns(a):
    """The free columns of a float64 c x dim block of rank c, ascending, or None.

    A complete QR of a.T holds an orthonormal basis of the null space in its
    last dim - c columns.  Gauss-Jordan elimination of that basis, pivoting
    on the largest index, pivots where the canonical null vectors have their
    largest indices: at the free columns.  An entry counts as zero below
    max(dim, rows) * eps times the basis's largest entry, the rounding level
    of the QR, so a null vector with entries of very different sizes, as
    (2^30, -1), keeps its small ones.  This is a float guess that _certify
    proves or refuses; None if the QR fails, the basis is not finite or it
    vanishes before dim - c pivots are found.
    """
    c, dim = a.shape
    try:
        q, _r = np.linalg.qr(a.T, mode="complete")
    except np.linalg.LinAlgError:
        return None
    null = q[:, c:].T.copy()
    del q, _r
    if not np.isfinite(null).all():
        return None
    free = []
    while len(null):
        mags = np.abs(null)
        largest = mags.max(axis=0)
        big = np.flatnonzero(largest > largest.max() * max(null.shape) * _EPS)
        if not len(big):
            return None
        f = big[-1]
        k = mags[:, f].argmax()
        pivot = null[k] / null[k, f]
        null = np.delete(null, k, axis=0)
        null -= np.outer(null[:, f], pivot)
        free.append(int(f))
    return sorted(free)


def _is_nonsingular(b, inverse):
    """Whether an approximate inverse proves the float64 integer matrix b nonsingular.

    R = rint(2^20 inverse) and E = R b - 2^20 I are integer matrices.  While
    (largest row sum of |R|) * max|b| < 2^52, every partial sum of R b is an
    integer below 2^52, so E is exact in float64.  Then ||E||_inf < 2^20
    means ||I - R b / 2^20||_inf < 1, so R b, and with it b, is nonsingular
    (Rump, "Verification methods", Acta Numerica 19, 2010).  inverse is
    overwritten.
    """
    r = np.rint(np.multiply(inverse, _PROOF_SCALE, out=inverse), out=inverse)
    e = r @ b
    e.flat[:: len(e) + 1] -= _PROOF_SCALE
    exact = np.abs(r, out=r).sum(axis=1).max() * max(b.max(), -b.min()) < 2**52
    return exact and np.abs(e, out=e).sum(axis=1).max() < _PROOF_SCALE


def _rationalize(x):
    """(q, numerators): each column of x as fractions over one denominator.

    q[j] is the least positive integer up to DENOMINATOR_BOUND for which
    every entry of q[j] * x[:, j] lies within _ROUNDING_TOLERANCE of an
    integer, and numerators[:, j] are those integers.  None if a column has
    no such q.
    """
    q = np.zeros(x.shape[1])
    numerators = np.empty_like(x)
    todo = np.arange(x.shape[1])
    for den in range(1, DENOMINATOR_BOUND + 1):
        y = den * x[:, todo]
        rounded = np.rint(y)
        done = (np.abs(y - rounded) < _ROUNDING_TOLERANCE).all(axis=0)
        q[todo[done]] = den
        numerators[:, todo[done]] = rounded[:, done]
        todo = todo[~done]
        if not len(todo):
            return q, numerators
    return None


def _annihilated(a, cands, null):
    """Whether every row of a block is orthogonal to every null vector, in exact integers.

    a is the float64 integer block, and the columns of cands are integer
    multiples of the vectors null, as float64.  While (largest row sum of
    |a|) * max|cands| < 2^52, every partial sum of a @ cands is an integer
    below 2^52, so one float64 product is exact; else the dot products are
    summed in Python ints.
    """
    if np.linalg.norm(a, np.inf) * np.abs(cands).max() < 2**52:
        return not (a @ cands).any()
    ints = a.astype(np.int64).astype(object)
    return not any(
        (ints[:, list(vec)] @ np.array(list(vec.values()), dtype=object)).any() for vec in null
    )


def _certify(a):
    """(rank, canonical null vectors) of a float64 c x dim block of integers.

    Worked in float64 and proven in exact integers, or None.  Given the
    block A (_dense_block) with c <= dim, a float null-space
    basis gives its dim - c free columns (_free_columns); and the c x c
    submatrix B of the other, pivot, columns is proven nonsingular from an
    approximate inverse (_is_nonsingular), which proves rank c.  Each free
    column f gives the candidate x = -B^-1 A[:, f] on the pivots, 1 at f
    and 0 at the other free columns, rounded to fractions with bounded
    denominators (_rationalize) and scaled to content 1.  It is accepted
    only if it has no entry right of f and A x = 0 in exact integers
    (_annihilated).  The accepted candidates span the complement and have
    distinct largest indices, so they are its canonical basis, the one
    _Echelon.nullspace gives.  None when there are
    more products than states, or when a step is not proven: a result that
    is not finite, a B that is singular or too ill-conditioned, or a
    candidate that fails.
    """
    c, dim = a.shape
    if c > dim:
        return None
    if not c:
        return 0, [{f: 1} for f in range(dim)]
    with np.errstate(all="ignore"):
        free = _free_columns(a) if c < dim else []
        if free is None:
            return None
        pivots = np.delete(np.arange(dim), free)
        b = a[:, pivots] if free else a
        try:
            inverse = np.linalg.inv(b)
        except np.linalg.LinAlgError:
            return None
        x = -(inverse @ a[:, free])
        if not _is_nonsingular(b, inverse):
            return None
        if not free:
            return c, []
        found = _rationalize(x) if np.isfinite(x).all() else None
        if found is None:
            return None
        q, numerators = found
        cands = np.zeros((dim, len(free)))
        cands[pivots] = numerators
        cands[free, np.arange(len(free))] = q
        null = []
        for f, column in zip(free, cands.T):
            nonzero = np.flatnonzero(column)
            if nonzero[-1] != f:
                return None
            null.append(_canonical_vector(dict(zip(nonzero.tolist(), map(int, column[nonzero])))))
        return (c, null) if _annihilated(a, cands, null) else None


@cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where no such library is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


@contextmanager
def _one_blas_thread():
    """Run a block with numpy's OpenBLAS on one thread, then restore its count.

    On a 2-vCPU host, (3,3,fermion) generation took 0.94-1.03 s in 7 of 12
    fresh processes on two threads, against 46-81 ms in all 12 on one."""
    found = _blas_threads()
    if found is None:
        yield
        return
    get, set_threads = found
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _settle(block, dim):
    """(rank, canonical null vectors) of one block.

    block is (positions, integer coefficients, bounds) over the sector's
    dim states (_dense_block).  It is settled by _certify, on one BLAS
    thread (_one_blas_thread), or by the exact echelon of its Python-int
    rows if that fails, an entry reaches 2^53 (_dense_block) or the sector
    has more than DENSE_SECTOR_CAP states.
    """
    if dim <= DENSE_SECTOR_CAP:
        a = _dense_block(block, dim)
        with _one_blas_thread():
            result = None if a is None else _certify(a)
        if result is not None:
            return result
    ech = _Echelon(dim)
    positions, coeffs, bounds = (part.tolist() for part in block)
    for lo, hi in zip(bounds, bounds[1:]):
        ech.insert(dict(zip(positions[lo:hi], coeffs[lo:hi])))
    return ech.rank, ech.nullspace()


def _sector_complements(catalog, grade, plan, formed, products):
    """(product count, {sector: (rank, null vectors)}) of one grade's products.

    Only the sectors in formed are taken from the formed products (Products)
    and settled, each before the next one is taken; the count covers every
    sector of the plan (Products.plan), read from it for the others.  A
    block's states are put in the sector's coordinates (LevelBasis.sectors)
    by one searchsorted; a state it does not find, a product with a state
    outside its predicted sector, is an InternalConsistencyError.  Null
    vectors are in level indices.
    """
    basis = catalog.level_basis(grade)
    count = sum(len(keys) for sector, keys in plan.items() if sector not in formed)
    out = {}
    for sector, indices in basis.sectors.items():
        if sector not in formed:
            continue
        states, coeffs, bounds = products.take(plan[sector])
        positions = np.minimum(np.searchsorted(indices, states), len(indices) - 1)
        stray = states[indices[positions] != states]
        if len(stray):
            state = basis.orbitals(int(stray[0]))
            raise InternalConsistencyError(
                f"a product at grade {grade} leaves its sector {sector}: "
                f"state {state} lies in sector {sector_of(state)}"
            )
        count += len(bounds) - 1
        rank, null = _settle((positions, coeffs, bounds), len(indices))
        out[sector] = rank, [dict(zip(indices[list(vec)].tolist(), vec.values())) for vec in null]
    return count, out


def _representative(sector):
    """The sector of its axis-permutation orbit whose degrees do not increase."""
    return tuple(sorted(sector, reverse=True))


def _axis_permutation(sector):
    """perm with sector[a] == _representative(sector)[perm[a]] on every axis a."""
    order = sorted(range(len(sector)), key=lambda a: -sector[a])
    return tuple(order.index(a) for a in range(len(sector)))


def _permute_axes(basis, vec, perm):
    """A state vector of one level with its axes permuted.

    Every orbital o of every state becomes (o[perm[0]], ..., o[perm[d-1]])
    by a code map (OrbitalCodes.permutation), and the rows are located and
    signed with the phase of re-sorting them (LevelBasis.locate_signed).
    This is a substitution of the variables, a signed permutation of the
    level's states that sends a state of sector s to sector (s[perm[0]],
    ..., s[perm[d-1]]).
    """
    rows = basis.codes.permutation(perm, basis.grade)[basis.code_array[list(vec)]]
    targets, phases = basis.locate_signed(rows)
    return {t: sign * c for t, sign, c in zip(targets.tolist(), phases.tolist(), vec.values())}


def _canonical_basis(vectors):
    """The canonical basis of the span of linearly independent integer vectors.

    Gauss-Jordan elimination pivoting on the largest index, in integers
    (_eliminate): each vector ends with zeros at the others' pivots, which
    up to a scale is unique to the span.  Scaled to content 1 with the
    lowest-index entry positive and ordered by pivot, it is the basis
    _Echelon.nullspace and _certify give for a complement.  The rows are
    kept in that form as they change, so their entries stay small.
    """
    rows = {}
    for vec in vectors:
        vec = dict(vec)
        for p, row in rows.items():
            if p in vec:
                _eliminate(vec, p, row)
        q = max(vec)
        vec = rows[q] = _canonical_vector(vec)
        for p, row in rows.items():
            if p != q and q in row:
                _eliminate(row, q, vec)
                rows[p] = _canonical_vector(row)
    return [rows[q] for q in sorted(rows)]


def generate_shapes(n, d, statistics=FERMION, max_grade=None, state_cap=None):
    """Build the full shape catalog grade by grade.

    At every grade the trivial span is lower shapes times Euler monomials
    (none at the ground grade, whose shapes are the basis states), and the
    new shapes are its complement, sector by sector, ordered by largest
    state index.  Only one sector per axis-permutation orbit is formed and
    settled (_sector_complements): the one whose per-axis degrees do not
    increase.  Every other sector t takes its representative r's rank, and
    its shapes are r's null vectors with the axes permuted onto t
    (_permute_axes), brought to canonical form (_canonical_basis).

    This is exact.  Permuting the axes is a signed permutation of a level's
    states, so it is orthogonal; it sends sector s to its image and the
    Euler factor e_m^[k](a) to e_m^[k] of the image axis, so a shape times
    a monomial to the image shape times the image monomial.  The ground
    shapes are the states, closed under it; if the shape span of every
    lower (grade, sector) is carried onto that of its image, then so is the
    trivial span of r onto that of t, and the complement of r onto the
    complement of t.  The canonical basis is unique to its span, so the
    catalog is the one that settling t directly would give; verify_span
    settles every sector directly and checks this independently.

    The products must be independent, and the complement dimension must
    equal the shape polynomial coefficient at every grade and the sector
    law at every (grade, sector); else an InternalConsistencyError is
    raised with diagnostics.  The product count of a sector that is not
    formed is read from the plan of products, and its rank is its
    representative's, so these checks cover every sector.  The result is
    deterministic: two runs produce identical catalogs.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    state_cap = default_state_cap() if state_cap is None else check_state_cap(state_cap)
    poly = shape_polynomial(n, d, statistics)
    top = poly.degree()
    if max_grade is None:
        max_grade = top
    elif not 0 <= max_grade <= top:
        raise ValueError(
            f"max_grade must be between 0 and {top}, the degree of the shape "
            f"polynomial, got {max_grade}"
        )
    catalog = ShapeCatalog(n, d, statistics, poly, max_grade, shapes=[], state_cap=state_cap)
    law = sector_shape_counts(n, d, statistics)
    products = Products(catalog, max_grade - poly.lowest_degree())
    for grade in range(poly.lowest_degree(), max_grade + 1):
        expected = poly.coefficient(grade)
        basis = catalog.level_basis(grade)
        sectors = basis.sectors
        formed = {s for s in sectors if s == _representative(s)}
        plan = products.plan(grade)
        products.form(grade)
        count, blocks = _sector_complements(catalog, grade, plan, formed, products)
        for sector in sectors.keys() - formed:
            rank, null = blocks[_representative(sector)]
            perm = _axis_permutation(sector)
            blocks[sector] = rank, _canonical_basis(
                [_permute_axes(basis, vec, perm) for vec in null]
            )
        rank = sum(r for r, _null in blocks.values())
        if rank < count:
            raise InternalConsistencyError(
                f"trivial products at grade {grade} are not free: "
                f"{count} vectors have rank {rank}"
            )
        if len(basis) - rank != expected:
            raise InternalConsistencyError(
                f"complement dimension mismatch at grade {grade}: expected "
                f"{expected} new shapes, found {len(basis) - rank} "
                f"(trivial rank {rank} in dimension {len(basis)})"
            )
        for sector, indices in sectors.items():
            found = len(indices) - blocks[sector][0]
            if found != law.get(sector, 0):
                raise InternalConsistencyError(
                    f"sector law mismatch at grade {grade}, sector {sector}: "
                    f"expected {law.get(sector, 0)} new shapes, found {found}"
                )
        new_vectors = sorted((v for _r, null in blocks.values() for v in null), key=max)
        first = len(catalog.shapes)
        catalog.shapes += [ShapeRecord(grade, idx, vec) for idx, vec in enumerate(new_vectors)]
        products.want_representatives(range(first, len(catalog.shapes)))
    return catalog


@dataclass
class SpanReport:
    """Result of checking that shapes plus trivial products span a level."""

    grade: int
    dimension: int
    vector_count: int
    rank: int
    passed: bool

    def __str__(self):
        status = "ok" if self.passed else "RANK DEFICIENT"
        return (
            f"grade {self.grade}: rank {self.rank}/{self.dimension} from "
            f"{self.vector_count} vectors ({status})"
        )


def verify_span(catalog, grade):
    """Check that all shape x Euler products of one grade span the level.

    The vectors are every catalog shape of grade <= the target grade times
    every Euler monomial of the complementary degree (degree zero included,
    so the grade's own shapes participate).  Reports their rank against the
    level's dimension, summed over sectors: a sector whose certificate
    (_certify) proves its rank equal to its dimension is certified full,
    and any other sector reports its exact rank.  Every sector is formed and settled here,
    none is transported from its axis-permutation representative as in
    generate_shapes, so this checks the catalog independently of that
    shortcut.
    """
    basis = catalog.level_basis(grade)
    products = products_through(catalog, grade)
    plan = products.plan(grade)
    count, blocks = _sector_complements(catalog, grade, plan, basis.sectors.keys(), products)
    rank = sum(r for r, _null in blocks.values())
    return SpanReport(grade, len(basis), count, rank, passed=rank == len(basis))
