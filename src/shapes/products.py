"""Shape x Euler-boson monomial products over the level basis.

Every trivial state of a grade is a lower shape times an Euler monomial,
and it is formed directly over state indices, never as an expanded
polynomial: one Euler factor e_m^[k](axis) maps each state of a level to
a signed sum of states of the level m*k higher (the Pieri rule for
elementary symmetric functions, Macdonald I.5).  Every product is its
monomial's last factor times the product one factor lower, formed at a
lower grade, so each (shape, monomial prefix) is formed once (Products).
A product is keyed by one integer, its shape and the number of its
monomial (EulerTable), and all the products of one grade are formed in
one batch (_apply_factors): the code rows of every (source grade, factor)
are located and summed together, in chunks bounded in bytes, exact in
int64 or, past its bound, in Python ints.  A factor raises one axis's
degree total by m*k, so a product's sector is its shape's sector plus the
monomial's per-axis degrees (Products.plan).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, lcm

import numpy as np

from .errors import InternalConsistencyError
from .polycore import chunks, euler_table, sector_of

# The bytes a batched product pass (_apply_factors) holds per (entry,
# m-subset) pair, its output aside: tracemalloc measured 63-132 on grades
# of (4,2,b), (3,3,f), (5,2,f) and (6,2,f) formed in one chunk.
_PAIR_BYTES = 128
# A grade's products are formed in chunks of at most CHUNK_BYTES, or of
# this fraction of the grade's pairs if that is more: each chunk costs
# about 30 numpy calls per pass it touches, and the top grades of (5,2,f)
# and (3,4,f) then take 9 chunks, not up to 76, with no traced peak of
# generation measured higher.
_GRADE_PARTS = 8


@cache
def _subset_columns(n, m):
    """C(n, m) x n gather indices into a state's codes followed by its
    shifted codes: row j takes the shifted code at the rows of the j-th
    m-subset, in combinations order, and the code itself elsewhere."""
    columns = np.tile(np.arange(n), (comb(n, m), 1))
    for row, subset in enumerate(combinations(range(n), m)):
        columns[row, list(subset)] += n
    return columns


def _subset_rows(source, factor, states):
    """Some states of one level times e_m^[k](axis), as unsorted code rows.

    factor is (m, k, axis) and states are indices of the level basis
    source.  A state times the symmetric factor is a sum over the
    m-subsets of its rows: shift those orbitals by k on the axis
    (OrbitalCodes.shift) and re-sort the rows (the Pieri rule).  Returns a
    (states, C(n, m), n) array whose row j of state r is states[r] with
    subset j shifted, in combinations order, before the sort.
    """
    m, k, axis = factor
    rows = source.code_array[states]
    shifted = source.codes.shift(k, axis, source.grade)[rows]
    return np.hstack([rows, shifted])[:, _subset_columns(source.n, m)]


def _sum_equal_keys(keys, values):
    """(distinct keys ascending, the exact sum of each one's values), zeros dropped."""
    if not len(keys):
        return keys, values
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(values, starts)
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def _apply_factors(target, passes, vectors):
    """Vectors times Euler factors, over the level target, in one batch.

    vectors is a _Batch; passes are (source level, factor, end) triples in
    order, the vectors from the previous pass's end up to end lying over
    source and taking the factor (m, k, axis).  Returns their images as
    (state indices, coefficients, bounds), image j the slice
    bounds[j]:bounds[j + 1], indices ascending, no coefficient zero.

    The vectors are cut into chunks of whole vectors whose (entry,
    m-subset) pairs take at most CHUNK_BYTES, or an eighth of the batch's
    if that is more (chunks, _PAIR_BYTES, _GRADE_PARTS).  In a
    chunk, each pass builds the subset rows (_subset_rows) of the distinct
    states its vectors touch, all the rows are located in one call
    (LevelBasis.locate_signed) and joined with the entries, and equal
    targets of one image are summed exactly (_sum_equal_keys).  A
    coefficient of an image, and every partial sum, is at most ||v||_1 *
    C(n, m) in magnitude: a chunk runs in int64 while that is below 2^62
    for each of its vectors (summed in float64, whose rounding the margin
    below 2^63 covers), and in Python ints (object arrays) otherwise,
    whatever the width of the stored vectors it reads (_compact).
    """
    n, size, bounds = target.n, len(target), vectors.bounds
    starts = [0] + [end for _source, _factor, end in passes]
    widths = np.repeat([comb(n, factor[0]) for _s, factor, _e in passes], np.diff(starts))
    images, sums, counts = [], [], []
    for chunk in chunks(np.cumsum(np.diff(bounds) * widths * _PAIR_BYTES), _GRADE_PARTS):
        lo, hi = chunk.start, chunk.stop
        rows, firsts, spans, at = [], [], [], 0
        for (source, factor, end), begin in zip(passes, starts):
            if max(lo, begin) < min(hi, end):
                entries = slice(bounds[max(lo, begin)], bounds[min(hi, end)])
                touched, local = np.unique(vectors.indices[entries], return_inverse=True)
                subsets = _subset_rows(source, factor, touched)
                width = subsets.shape[1]
                rows.append(subsets.reshape(-1, n))
                firsts.append(at + local * width)
                spans.append(np.full(len(local), width))
                at += len(rows[-1])
        targets, signs = target.locate_signed(np.concatenate(rows))
        first, width = np.concatenate(firsts), np.concatenate(spans)
        pair = np.repeat(first - np.cumsum(width) + width, width) + np.arange(width.sum())
        coeffs = _compact(vectors.coeffs[bounds[lo] : bounds[hi]])
        if coeffs.dtype != object:
            norms = np.add.reduceat(np.abs(coeffs.astype(float)), bounds[lo:hi] - bounds[lo])
            coeffs = coeffs.astype(np.int64 if (norms * widths[chunk] < 2.0**62).all() else object)
        owners = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
        sign = signs[pair]
        live = sign != 0
        keys = (np.repeat(owners, width) * size + targets[pair])[live]
        values = (np.repeat(coeffs, width) * sign)[live]
        keys, values = _sum_equal_keys(keys, values)
        images.append(_compact(keys % size))
        sums.append(_compact(values))
        counts.append(np.bincount(keys // size, minlength=hi - lo))
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return np.concatenate(images), np.concatenate(sums), bounds


def _compact(values):
    """Integer values in the narrowest of int32, int64 and Python ints
    (object) that holds every one: products are stored until their last
    reader and stored batches are joined, so every part is compacted alike,
    and a part read back from a wide store is narrowed again."""
    top = np.abs(values).max(initial=0)
    for dtype, bound in ((np.int32, 2**31), (np.int64, 2**63)):
        if top < bound:
            return values.astype(dtype, copy=False)
    return values.astype(object, copy=False)


class _Batch:
    """Integer vectors keyed by product, rows in any order: row j has the
    key keys[j], the last grade that reads it, last[j] (negative once it
    is freed), and the entries bounds[j]:bounds[j + 1] of indices (state
    indices, ascending) and coeffs."""

    def __init__(self, keys, last, indices, coeffs, bounds):
        self.keys, self.last, self.bounds = keys, last, bounds
        self.indices, self.coeffs = indices, coeffs

    @staticmethod
    def join(batches):
        ends = np.cumsum([0] + [b.bounds[-1] for b in batches])
        columns = ("keys", "last", "indices", "coeffs")
        return _Batch(
            *(np.concatenate([getattr(b, name) for b in batches]) for name in columns),
            np.concatenate([[0]] + [b.bounds[1:] + end for b, end in zip(batches, ends)]),
        )

    @cached_property
    def _order(self):
        return np.argsort(self.keys)

    def find(self, keys):
        """The rows of these keys; KeyError if one is not stored or was freed."""
        order = self._order
        at = np.searchsorted(self.keys[order], keys)
        rows = order[np.minimum(at, len(order) - 1)] if len(order) else at
        if len(rows) and not (len(order) and (self.keys[rows] == keys).all()):
            raise KeyError("a product read is not stored")
        if (self.last[rows] < 0).any():
            raise KeyError("a product read was freed")
        return rows

    def select(self, rows):
        """These rows, in this order, as a batch."""
        lengths = self.bounds[rows + 1] - self.bounds[rows]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        entries = np.repeat(self.bounds[rows] - bounds[:-1], lengths) + np.arange(bounds[-1])
        keys, last = self.keys[rows], self.last[rows]
        return _Batch(keys, last, self.indices[entries], self.coeffs[entries], bounds)


_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_ENTRIES = np.empty(0, dtype=np.int32)  # as _compact stores them, so joins keep int32
_NO_PRODUCTS = _Batch(_NO_KEYS, _NO_KEYS, _NO_ENTRIES, _NO_ENTRIES, np.zeros(1, dtype=np.int64))


class Products:
    """Shape x Euler monomial products, each formed once from the one a factor lower.

    A product is keyed by one integer, shape * len(table) + monomial, from
    its shape's position in the catalog and its monomial's number
    (EulerTable); only this module makes and reads keys.  A product is the
    monomial's last factor times the product of the monomial's prefix, down
    to the shape itself under the empty monomial 0.  want registers
    products with every prefix they are formed from; form(grade) forms the
    products registered at that grade in one batch (_apply_factors); take
    hands stored products out as a batch, and exact as dicts.  A stored
    product is freed once its last reader has read it: a prefix when the
    products one factor above it are formed, a product of the grade when it
    is taken.  Freed rows are dropped once they hold as many entries as the
    live ones, so dropping copies no more entries than it frees.
    Products are integer vectors: a shape with rational coefficients is
    scaled to integers first, and exact undoes the scale.
    """

    def __init__(self, catalog, max_degree):
        self.catalog = catalog
        self.table = euler_table(catalog.n, catalog.d, max_degree)
        self._scale = {}  # shape -> the denominator it was scaled by
        self._wanted = (_NO_KEYS,) * 3  # keys, grades and last reads of the products to form
        self._stored = _NO_PRODUCTS
        self._grade = None  # the grade last formed

    def want(self, keys):
        """Register the products of these keys, each read at its own grade,
        with every prefix they are formed from, each read where the products
        one factor above it are formed.  A product is registered once."""
        if not len(keys):
            return
        table, count = self.table, len(self.table)
        # Each key read, beside the key whose grade reads it: a wanted
        # product its own, a prefix that of the product one factor above.
        read, by = [keys], [keys]
        while len(keys := keys[keys % count > 0]):
            by.append(keys)
            keys = keys - keys % count + table.prefix[keys % count]
            read.append(keys)
        read, at = np.concatenate(read), self._grades(np.concatenate(by))
        order = np.lexsort((at, read))
        latest = np.append(read[order][1:] != read[order][:-1], True)
        keys, last = read[order][latest], at[order][latest]
        own = keys % count == 0  # the shapes themselves
        if own.any():
            self._stored = _Batch.join([self._stored, self._shape_batch(keys[own], last[own])])
        wanted = keys[~own], self._grades(keys[~own]), last[~own]
        self._wanted = tuple(map(np.concatenate, zip(self._wanted, wanted)))

    def want_representatives(self, shapes):
        """Register the products of new shapes, catalog positions `shapes`,
        that generation reads: each shape times each monomial that lands it
        in a sector whose degrees do not increase (the representative of its
        axis-permutation orbit), at a higher grade up to the catalog's
        max_grade.  Generation forms only those sectors."""
        table, catalog, keys = self.table, self.catalog, []
        for shape in shapes:
            rec = catalog.shapes[shape]
            shifts = table.shifts[1 : table.starts[catalog.max_grade - rec.grade + 1]]
            sectors = np.array(_home_sector(catalog, rec)) + shifts
            representative = (sectors[:, :-1] >= sectors[:, 1:]).all(axis=1)
            keys.append(shape * len(table) + 1 + np.flatnonzero(representative))
        self.want(np.concatenate(keys + [_NO_KEYS]))

    def _grades(self, keys):
        """The grade of each key's product."""
        shapes = np.array([rec.grade for rec in self.catalog.shapes], dtype=np.int64)
        return shapes[keys // len(self.table)] + self.table.degrees[keys % len(self.table)]

    def _shape_batch(self, keys, last):
        """The vectors of the shapes of these keys, scaled to integers."""
        shapes = (keys // len(self.table)).tolist()
        rows = [sorted(self.catalog.shapes[shape].coeffs.items()) for shape in shapes]
        values = []
        for shape, row in zip(shapes, rows):
            scale = self._scale[shape] = lcm(*(c.denominator for _i, c in row))
            values += [int(c * scale) for _i, c in row]
        return _Batch(
            keys,
            last,
            _compact(np.array([i for row in rows for i, _c in row], dtype=np.int64)),
            _compact(np.array(values, dtype=object)),
            np.cumsum([0] + list(map(len, rows))),
        )

    def plan(self, grade):
        """{sector: product keys} for every sector of one level.

        A shape in sector b times a monomial of shift t lies in sector b + t,
        so a sector's products are every shape of grade <= the target times
        the monomials of the complementary degree and that shift
        (_lower_products), keys ascending; a sector none reaches has none.
        A predicted sector with no states is an InternalConsistencyError.
        """
        catalog, table = self.catalog, self.table
        shapes, keys = _lower_products(catalog, grade, table)
        distinct, owner = np.unique(shapes, return_inverse=True)
        homes = [_home_sector(catalog, catalog.shapes[shape]) for shape in distinct.tolist()]
        homes = np.array(homes, dtype=np.int64).reshape(-1, catalog.d)
        sectors = homes[owner] + table.shifts[keys % len(table)]
        # A sector's degrees are at most grade: one integer per sector.
        order = np.argsort(sectors @ (grade + 1) ** np.arange(catalog.d), kind="stable")
        sectors = sectors[order]
        first = np.append(True, (sectors[1:] != sectors[:-1]).any(axis=1))[: len(keys)]
        starts = np.flatnonzero(first)
        groups = np.split(keys[order], starts[1:])
        reached = dict(zip(map(tuple, sectors[starts].tolist()), groups))
        level = catalog.level_basis(grade).sectors
        stray = reached.keys() - level.keys()
        if stray:
            raise InternalConsistencyError(f"grade {grade} has no state in sector {min(stray)}")
        return {sector: reached.get(sector, _NO_KEYS) for sector in level}

    def form(self, grade):
        """Form every registered product of this grade, after dropping the
        stored products that no grade from this one on reads."""
        self._grade = grade
        if (self._stored.last < grade).any():
            self._stored = self._stored.select(np.flatnonzero(self._stored.last >= grade))
        keys, grades, last = self._wanted
        now = grades == grade
        if now.any():
            self._wanted = tuple(a[grades > grade] for a in self._wanted)
            formed = self._form(grade, keys[now], last[now])
            self._stored = _Batch.join([self._stored, formed])

    def _form(self, grade, keys, last):
        table, level = self.table, self.catalog.level_basis
        monomial = keys % len(table)
        order = np.lexsort((keys, table.factor[monomial]))
        keys, last, monomial = keys[order], last[order], monomial[order]
        factor = table.factor[monomial]
        vectors = self._read(keys - monomial + table.prefix[monomial])
        ends = np.append(np.flatnonzero(factor[1:] != factor[:-1]) + 1, len(keys)).tolist()
        passes = []
        for end in ends:
            m, k, axis = table.factor_of(int(factor[end - 1]))
            passes.append((level(grade - m * k), (m, k, axis), end))
        return _Batch(keys, last, *_apply_factors(level(grade), passes, vectors))

    def _read(self, keys):
        """The stored products of these keys as a batch, each freed if no
        later grade than the one last formed reads it."""
        stored = self._stored
        rows = stored.find(keys)
        batch = stored.select(rows)
        stored.last[rows[batch.last <= self._grade]] = -1
        freed = stored.last < 0
        sizes = np.diff(stored.bounds)
        if freed.any() and sizes[freed].sum() >= sizes[~freed].sum():
            self._stored = stored.select(np.flatnonzero(~freed))
        return batch

    def take(self, keys):
        """The stored products of these keys, of the grade last formed, as
        (state indices, coefficients, bounds)."""
        batch = self._read(keys)
        return batch.indices, _compact(batch.coeffs), batch.bounds

    def exact(self, keys):
        """take, as {state index: coeff} dicts of Python ints, or of
        Fractions for a shape whose coefficients are not integers."""
        indices, coeffs, bounds = (a.tolist() for a in self.take(keys))
        out = []
        for shape, lo, hi in zip((keys // len(self.table)).tolist(), bounds, bounds[1:]):
            scale = self._scale[shape]
            values = coeffs[lo:hi] if scale == 1 else [Fraction(c, scale) for c in coeffs[lo:hi]]
            out.append(dict(zip(indices[lo:hi], values)))
        return out


def _lower_products(catalog, grade, table):
    """(shapes, keys): every catalog shape of grade <= the target times
    every monomial of the complementary degree, keyed as Products keys
    them, ascending (catalog order, then enumeration order), with each
    one's shape."""
    starts, count = table.starts, len(table)
    keys = [
        np.arange(starts[grade - rec.grade], starts[grade - rec.grade + 1]) + shape * count
        for shape, rec in enumerate(catalog.shapes)
        if rec.grade <= grade
    ]
    keys = np.concatenate(keys + [_NO_KEYS])
    return keys // count, keys


def products_through(catalog, grade):
    """Every catalog shape of grade <= the target times every Euler monomial
    of the complementary degree, formed (Products)."""
    lowest = min((rec.grade for rec in catalog.shapes if rec.grade <= grade), default=grade)
    products = Products(catalog, grade - lowest)
    products.want(_lower_products(catalog, grade, products.table)[1])
    for g in range(lowest, grade + 1):
        products.form(g)
    return products


def trivial_products(catalog, grade):
    """Every catalog shape of grade <= the target times every Euler monomial.

    Yields (record, euler, vector) with records in catalog order and, per
    record, monomials of the complementary degree in enumerate_euler_monomials
    order (at a shape's own grade, only the empty one), with vectors as
    {state index: coeff} dicts of Python ints over the target level basis.
    """
    products = products_through(catalog, grade)
    table = products.table
    shapes, keys = _lower_products(catalog, grade, table)
    for shape, key, vec in zip(shapes.tolist(), keys.tolist(), products.exact(keys)):
        yield catalog.shapes[shape], table.monomial(key % len(table)), vec


def _home_sector(catalog, rec):
    """The sector of a shape's states."""
    return sector_of(catalog.level_basis(rec.grade).orbitals(min(rec.coeffs)))
