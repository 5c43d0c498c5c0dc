"""Constructive generation of all N!^(d-1) shapes, level by level.

Per grade, the trivial span is every lower shape times every Euler-boson
monomial of the complementary degree; the new shapes are the orthogonal
complement of that span, with the level's Slater/permanent states taken as
orthonormal coordinates.  The products are formed directly over state
indices, never as expanded polynomials: one Euler factor e_m^[k](axis)
maps each state of a level to a signed sum of states of the level m*k
higher (the Pieri rule for elementary symmetric functions).  The catalog
computes that image once per (grade, factor, state), on first use, and
every later product at every grade reuses it.

A factor raises one axis's degree total by m*k, so a product's sector
(LevelBasis.sectors) is known before any arithmetic: its shape's sector
plus the monomial's per-axis degrees.  The span splits into independent
blocks, one per (grade, sector), each formed and settled before the next
is formed, never all of a grade at once; a product with a state outside
its predicted sector is an InternalConsistencyError.  A block is settled
by a rank certificate mod the prime MODULUS (_certify), whose null vectors
are the canonical complement basis, or, if that fails or the sector has
more than DENSE_SECTOR_CAP states, by the exact integer echelon.  Three
laws are hard assertions at every grade: the products are linearly
independent (the free-module statement), the complement dimension matches
the shape polynomial coefficient, and each sector's complement dimension
matches sector_shape_counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import gcd, isqrt, lcm
from operator import add

import numpy as np

from .counting import (
    GradedQPolynomial,
    Statistics,
    FERMION,
    sector_shape_counts,
    shape_polynomial,
    total_shape_count,
)
from .deflation import LevelBasis
from .errors import InternalConsistencyError
from .polycore import (
    SlaterState,
    enumerate_euler_monomials,
    format_fraction,
    json_field,
    json_int,
    json_list,
    orbital_key,
    parse_fraction,
)

DEFAULT_STATE_CAP = 100_000
STATE_CAP_ENV_VAR = "SHAPES_STATE_CAP"

# The prime of the rank certificates.  Residues stay below 2^31, so the
# product of two fits in an int64.
MODULUS = 2**31 - 1
# Sectors with more states go to the exact echelon: eliminating a dense
# int64 matrix of 2048 x 2048 residues takes 32 MB.
DENSE_SECTOR_CAP = 2048


def default_state_cap():
    """Configured level-size guard; overridable via SHAPES_STATE_CAP."""
    value = os.environ.get(STATE_CAP_ENV_VAR)
    return check_state_cap(int(value), STATE_CAP_ENV_VAR) if value else DEFAULT_STATE_CAP


def check_state_cap(cap, name="state cap"):
    """Return cap if it is a positive number of states, else raise ValueError."""
    if cap <= 0:
        raise ValueError(f"{name} must be a positive number of states, got {cap}")
    return cap


def _int_rows(vec):
    """Scale a sparse exact vector to integers with content 1.

    Integer input that is already primitive is returned as is.
    """
    try:
        content = gcd(*vec.values())
    except TypeError:  # rational entries: clear the denominators first
        scale = lcm(*(Fraction(c).denominator for c in vec.values()))
        vec = {i: int(c * scale) for i, c in vec.items()}
        content = gcd(*vec.values())
    if content in (0, 1):
        return vec
    return {i: v // content for i, v in vec.items()}


def _canonical_sign(vec):
    """Flip signs so the entry at the lowest index is positive."""
    if not vec:
        return vec
    if vec[min(vec)] < 0:
        return {i: -v for i, v in vec.items()}
    return vec


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
        entry: when the row's pivot divides it, the multiple of the row is
        subtracted as is, else the vector is scaled first.  Every
        intermediate vector is a multiple of the one the content-stripped
        elimination would hold, so the row stored (content 1, positive
        pivot) is the same.
        """
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                vec = _canonical_sign(_int_rows(vec))
                self.rows[p] = vec
                return p
            a, b = vec[p], row[p]
            f, r = divmod(a, b)
            if r:
                g = gcd(a, b)
                scale, f = b // g, a // g
                for c in vec:
                    vec[c] *= scale
            for c, rv in row.items():
                nv = vec.get(c, 0) - f * rv
                if nv:
                    vec[c] = nv
                else:
                    del vec[c]
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
            out.append(_canonical_sign(_int_rows(x)))
        return out


@dataclass(frozen=True)
class ShapeRecord:
    """One shape: a grade, a stable id, and its exact coefficient vector.

    Coefficients are sparse over the level basis of the shape's grade, in
    canonical normalized form (integer values, content 1, first nonzero
    positive).
    """

    grade: int
    index: int
    statistics: Statistics
    coeffs: dict

    @property
    def id(self):
        return f"{self.grade}:{self.index}"

    def materialize(self, basis):
        if basis.grade != self.grade:
            raise ValueError("basis grade does not match the shape grade")
        return basis.materialize(self.coeffs)


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
    _images: dict = field(default_factory=dict, repr=False)

    def level_basis(self, grade):
        basis = self._bases.get(grade)
        if basis is None:
            basis = LevelBasis(
                self.n, self.d, grade, self.statistics, max_states=self.state_cap
            )
            self._bases[grade] = basis
        return basis

    def _times_factor(self, grade, vec, factor):
        """Multiply a state vector of one grade by e_m^[k](axis).

        factor is (m, k, axis).  Returns the product's grade and its sparse
        {state index: coeff} vector, summed from the factor's image of each
        state.  Images are computed on first use and kept in _images, keyed
        by (grade, factor) and then by state index.
        """
        images = self._images.get((grade, factor))
        if images is None:
            images = self._images[grade, factor] = {}
        out = {}
        for i, c in vec.items():
            image = images.get(i)
            if image is None:
                image = images[i] = self._factor_image(grade, factor, i)
            pairs = iter(image)
            for target, coeff in zip(pairs, pairs):
                nv = out.get(target, 0) + c * coeff
                if nv:
                    out[target] = nv
                else:
                    del out[target]
        m, k, _axis = factor
        return grade + m * k, out

    def _factor_image(self, grade, factor, i):
        """One state times e_m^[k](axis), flat: (index, coeff, index, coeff, ...).

        The factor is symmetric, so a state times it is a sum over the
        m-subsets of its rows: shift those orbitals by k on the axis and
        re-sort the rows (the Pieri rule).  A determinant takes the sign of
        the sort and vanishes when two rows coincide; a permanent, summed
        over all n! assignments, takes 1 per subset.  Indices are in the
        level basis of grade + m*k.
        """
        m, k, axis = factor
        rows = [orbital_key(orb) for orb in self.level_basis(grade).states[i].orbitals]
        index = self.level_basis(grade + m * k).index
        fermion = self.statistics is FERMION
        n = len(rows)
        shifted = [
            (deg + k, orb[:axis] + (orb[axis] + k,) + orb[axis + 1 :]) for deg, orb in rows
        ]
        image = {}
        for subset in combinations(range(n), m):
            moved = list(rows)
            for r in subset:
                moved[r] = shifted[r]
            sign = 1
            if fermion:
                for a in range(n):
                    for b in range(a + 1, n):
                        if moved[a] < moved[b]:
                            sign = -sign
                        elif moved[a] == moved[b]:
                            sign = 0
                if not sign:
                    continue
            moved.sort(reverse=True)
            target = index[tuple([orb for _deg, orb in moved])]
            nv = image.get(target, 0) + sign
            if nv:
                image[target] = nv
            else:
                del image[target]
        return tuple(chain.from_iterable(image.items()))

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
                    "basis": [
                        [list(orb) for orb in basis.states[i].orbitals]
                        for i in indices
                    ],
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
        a non-integer grade or index or a shape that _read_coeffs rejects;
        and on a shape_polynomial other than shape_polynomial(n, d,
        statistics).
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
                coeffs = catalog._read_coeffs(grade, entry)
            except ValueError as exc:
                raise ValueError(f"catalog shape {shape_id}: {exc}") from None
            catalog.shapes.append(ShapeRecord(grade, index, stat, coeffs))
        if obj.get("shape_polynomial") != poly.to_json_obj():
            raise ValueError(f"catalog shape_polynomial is not that of n={n}, d={d}, {stat.value}")
        return catalog

    def _read_coeffs(self, grade, entry):
        """A stored shape's {state index: coeff}, in linear time.

        basis and coeffs must be lists.  Every basis row must be a list of
        orbitals and a distinct state of the level of the given grade, which
        lies in 0..max_grade, with one coefficient each; all rows must lie
        in one sector, as generation assumes; and the coefficients must be
        canonical as ShapeRecord documents: integers, none zero, content 1,
        the entry at the lowest state index positive.
        """
        if not 0 <= grade <= self.max_grade:
            raise ValueError(f"grade {grade} is outside 0..{self.max_grade}")
        rows, texts = json_list(entry, "basis"), json_list(entry, "coeffs")
        if len(rows) != len(texts):
            raise ValueError(f"{len(rows)} basis rows but {len(texts)} coefficients")
        index = self.level_basis(grade).index
        coeffs = {}
        sectors = set()
        for orbitals, text in zip(rows, texts):
            if not (isinstance(orbitals, list) and all(isinstance(o, list) for o in orbitals)):
                raise ValueError(f"row {orbitals!r} is not a list of orbitals")
            state = SlaterState.from_orbitals(orbitals, self.statistics)
            i = index.get(state.orbitals)
            if i is None:
                raise ValueError(
                    f"row {orbitals} is not a state of grade {grade} "
                    f"(n={self.n}, d={self.d}, {self.statistics.value})"
                )
            if i in coeffs:
                raise ValueError(f"row {orbitals} is listed twice")
            coeffs[i] = parse_fraction(text)
            sectors.add(state.sector)
        if len(sectors) > 1:
            raise ValueError(f"rows lie in {len(sectors)} sectors {sorted(sectors)}, not one")
        ints = [c.numerator for c in coeffs.values() if c and c.denominator == 1]
        if len(ints) != len(coeffs) or gcd(*ints) != 1 or coeffs[min(coeffs)] < 0:
            raise ValueError(
                "coefficients are not canonical (integers, none zero, content 1, "
                "lowest-index entry positive)"
            )
        return {i: c.numerator for i, c in coeffs.items()}


def _chain_products(catalog, rec, monomials):
    """Yield (euler, vector) for a shape times each monomial, in order.

    The vector is the product's exact sparse {state index: coeff}, formed
    one Euler factor at a time from the catalog's cached factor images;
    consecutive monomials share the product of their common leading
    factors.  Every yielded vector is a new dict.
    """
    partials = [(rec.grade, dict(rec.coeffs))]
    applied = []
    for euler in monomials:
        factors = euler.factors()
        keep = 0
        for have, want in zip(applied, factors):
            if have != want:
                break
            keep += 1
        del applied[keep:], partials[keep + 1 :]
        for factor in factors[keep:]:
            partials.append(catalog._times_factor(*partials[-1], factor))
            applied.append(factor)
        yield euler, partials[-1][1]


def trivial_products(catalog, grade):
    """Every catalog shape of grade <= the target times every Euler monomial.

    Yields (record, euler, vector) with records in catalog order and, per
    record, monomials of the complementary degree in enumerate_euler_monomials
    order (at a shape's own grade, only the empty one), with vectors over
    the target level basis.
    """
    for rec in catalog.shapes:
        if rec.grade <= grade:
            monomials = enumerate_euler_monomials(catalog.n, catalog.d, grade - rec.grade)
            for euler, vec in _chain_products(catalog, rec, monomials):
                yield rec, euler, vec


@cache
def _monomials_by_shift(n, d, degree):
    """enumerate_euler_monomials(n, d, degree) grouped by per-axis degree.

    Returns {shift: tuple of monomials}, each tuple in enumeration order,
    where shift[axis] is the degree the monomial's factors add on that axis.
    """
    out = {}
    for euler in enumerate_euler_monomials(n, d, degree):
        shift = tuple(sum(m * k for m, k in enumerate(e, start=1)) for e in euler.exponents)
        out.setdefault(shift, []).append(euler)
    return {shift: tuple(monomials) for shift, monomials in out.items()}


def _sector_blocks(catalog, grade):
    """Yield (sector, products) for each sector of one level, in turn.

    A shape in sector b times a monomial of shift t lies in sector b + t,
    so a sector's products are every shape of grade <= the target, in
    catalog order, times the monomials of the complementary degree and
    shift, in enumeration order: sparse {position: coeff} vectors in the
    sector's coordinates.  A predicted sector with no states, or a product
    with a state outside its predicted sector, is an InternalConsistencyError.
    """
    basis = catalog.level_basis(grade)
    plan = {}
    for rec in catalog.shapes:
        if rec.grade <= grade:
            home = catalog.level_basis(rec.grade).states[min(rec.coeffs)].sector
            by_shift = _monomials_by_shift(catalog.n, catalog.d, grade - rec.grade)
            for shift, monomials in by_shift.items():
                plan.setdefault(tuple(map(add, home, shift)), []).append((rec, monomials))
    stray = plan.keys() - basis.sectors.keys()
    if stray:
        raise InternalConsistencyError(f"grade {grade} has no state in sector {min(stray)}")
    for sector, indices in basis.sectors.items():
        position = {i: pos for pos, i in enumerate(indices)}
        products = []
        for rec, monomials in plan.get(sector, ()):
            for _euler, vec in _chain_products(catalog, rec, monomials):
                try:
                    products.append({position[i]: v for i, v in vec.items()})
                except KeyError as exc:
                    state = basis.states[exc.args[0]]
                    raise InternalConsistencyError(
                        f"a product at grade {grade} leaves its sector {sector}: "
                        f"state {state.orbitals} lies in sector {state.sector}"
                    ) from None
        yield sector, products


def _row_reduce(mat, full):
    """Eliminate an int64 matrix of residues mod MODULUS in place.

    Returns the pivot columns in order: row r ends with a 1 at pivots[r]
    and zeros below it, and with full the pivot columns are zero above
    their pivots too (reduced row echelon form).  Only the rows with a
    nonzero in the pivot column are updated, since products are sparse
    and fill in little.  Entries stay in [0, MODULUS), so every product
    of two fits in an int64.
    """
    p = MODULUS
    rows, cols = mat.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = mat[r:, c].nonzero()[0]
        if not len(below):
            continue
        k = r + below[0]
        if k != r:
            mat[[r, k]] = mat[[k, r]]
        head = mat[r, c:]
        head *= pow(int(head[0]), -1, p)
        head %= p
        update = below[1:] + r
        if full:
            update = np.concatenate([mat[:r, c].nonzero()[0], update])
        if len(update):
            block = mat[update, c:]
            block -= block[:, :1] * head
            block %= p
            mat[update, c:] = block
        pivots.append(c)
        r += 1
    return pivots


def _lift(residue):
    """Rational reconstruction of a residue mod MODULUS.

    Returns the fraction a/b with |a|, b <= sqrt(MODULUS/2) and
    a = residue * b (mod MODULUS), which is unique if it exists, or None.
    """
    bound = isqrt(MODULUS // 2)
    r0, r1 = MODULUS, residue % MODULUS
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certify(products, dim, want_null):
    """(rank, canonical null vectors) of sparse integer products over dim states.

    One dense elimination of their residues mod MODULUS.  The rank mod
    MODULUS is at most the rank over Q, which is at most min(count, dim),
    so when it reaches that bound the rank is proven.  With want_null,
    each free column f of the reduced echelon form gives a candidate
    e_f - sum_r R[r, f] e_pivots[r], lifted entry by entry by rational
    reconstruction, scaled to content 1 and accepted only if its integer
    dot product with every product is 0.  The accepted candidates span the
    complement and have distinct largest indices, so they are its
    canonical basis, the one _Echelon.nullspace gives.  Returns None when
    the rank falls short, an entry does not lift or a candidate fails.
    """
    mat = np.zeros((len(products), dim), dtype=np.int64)
    for row, vec in zip(mat, products):
        row[list(vec)] = [v % MODULUS for v in vec.values()]
    pivots = _row_reduce(mat, full=want_null)
    if len(pivots) < min(len(products), dim):
        return None
    null = []
    for f in sorted(set(range(dim)) - set(pivots)) if want_null else ():
        cand = {f: 1}
        for p, residue in zip(pivots, mat[:, f].tolist()):
            if p > f:
                break
            if residue:
                value = _lift(-residue)
                if value is None:
                    return None
                cand[p] = value
        cand = _canonical_sign(_int_rows(cand))
        for vec in products:
            if sum(c * vec.get(i, 0) for i, c in cand.items()):
                return None
        null.append(cand)
    return len(pivots), null


def _settle(products, dim, want_null):
    """(rank, canonical null vectors, or [] without want_null) of one block.

    By _certify, or by the exact echelon of the same products if that
    fails or the sector has more than DENSE_SECTOR_CAP states.
    """
    if dim <= DENSE_SECTOR_CAP:
        result = _certify(products, dim, want_null)
        if result is not None:
            return result
    ech = _Echelon(dim)
    for vec in products:
        ech.insert(vec)
    return ech.rank, ech.nullspace() if want_null else []


def _sector_complements(catalog, grade, held):
    """(product count, {sector: (rank, null vectors)}) of one grade's products.

    Null vectors are in level indices, and only for the sectors in held.
    Each block is settled before the next one is formed.
    """
    sectors = catalog.level_basis(grade).sectors
    count, out = 0, {}
    for sector, products in _sector_blocks(catalog, grade):
        count += len(products)
        indices = sectors[sector]
        rank, null = _settle(products, len(indices), sector in held)
        out[sector] = rank, [{indices[i]: v for i, v in vec.items()} for vec in null]
    return count, out


def generate_shapes(n, d, statistics=FERMION, max_grade=None, state_cap=None):
    """Build the full shape catalog grade by grade.

    At every grade the trivial span is lower shapes times Euler monomials
    (none at the ground grade, whose shapes are the basis states), and the
    new shapes are its complement, settled sector by sector
    (_sector_complements) and ordered by free column.  The products must
    be independent, and the complement dimension must equal the shape
    polynomial coefficient at every grade and the sector law at every
    (grade, sector); else an InternalConsistencyError is raised with
    diagnostics.  The result is deterministic: two runs produce identical
    catalogs.
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
    for grade in range(poly.lowest_degree(), max_grade + 1):
        expected = poly.coefficient(grade)
        basis = catalog.level_basis(grade)
        sectors = basis.sectors
        count, blocks = _sector_complements(catalog, grade, held=law.keys() & sectors)
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
        for idx, vec in enumerate(new_vectors):
            catalog.shapes.append(ShapeRecord(grade, idx, statistics, vec))
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
    level's dimension, summed over sectors: a sector whose rank mod
    MODULUS reaches its dimension is certified full, and any other sector
    reports its exact rank.
    """
    dimension = len(catalog.level_basis(grade))
    count, blocks = _sector_complements(catalog, grade, held=())
    rank = sum(r for r, _null in blocks.values())
    return SpanReport(grade, dimension, count, rank, passed=rank == dimension)
