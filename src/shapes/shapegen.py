"""Constructive generation of all N!^(d-1) shapes, level by level.

Per grade, the trivial span is every lower shape times every Euler-boson
monomial of the complementary degree; the new shapes are the orthogonal
complement of that span, with the level's Slater/permanent states taken as
orthonormal coordinates.  The products are formed directly over state
indices (trivial_products), never as expanded polynomials: one Euler
factor e_m^[k](axis) maps each state of a level to a signed sum of states
of the level m*k higher (the Pieri rule for elementary symmetric
functions).  The catalog computes that image once per (grade, factor,
state), on first use, and every later product at every grade reuses it.

A factor raises one axis's degree total by m*k, so every shape and every
product lies in one sector (LevelBasis.sectors), and the span splits into
independent blocks, one per (grade, sector).  Each block is settled by a
rank certificate mod the prime MODULUS: a dense elimination of the
products' residues whose rank equals the product count proves them
independent over the rationals, since rank mod p <= rank over Q <= count.
In sectors that hold shapes the reduced echelon form gives one candidate
per free column, lifted to rationals by rational reconstruction and
accepted only if its exact integer dot product with every product of the
sector is 0.  Accepted candidates are exactly the canonical complement
basis.  A block whose certificate fails, or whose sector has more than
DENSE_SECTOR_CAP states, is settled by the exact integer echelon instead.
Three laws are hard assertions at every grade: the products are linearly
independent (the free-module statement), the complement dimension matches
the shape polynomial coefficient, and each sector's complement dimension
matches sector_shape_counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, isqrt, lcm

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
    orbital_key,
    parse_fraction,
)

DEFAULT_STATE_CAP = 100_000
STATE_CAP_ENV_VAR = "SHAPES_STATE_CAP"

# The prime of the rank certificates.  Residues stay below 2^31, so they
# are stored as int32 and the product of two fits in an int64.
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


def orthogonal_complement(vectors, ambient_dim):
    """Exact basis of the orthogonal complement of a span of vectors.

    Works in the standard dot product on the given coordinates.  The output
    is in canonical normalized form (integer entries, content 1, first
    nonzero positive), ordered by free column, and deterministic; an empty
    input yields the standard basis.
    """
    ech = _Echelon(ambient_dim)
    for v in vectors:
        if isinstance(v, dict):
            sparse = {i: Fraction(c) for i, c in v.items() if c}
        else:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match the ambient dimension")
            sparse = {i: Fraction(c) for i, c in enumerate(v) if c}
        ech.insert(_int_rows(sparse))
    null = ech.nullspace()
    return [
        [Fraction(vec.get(i, 0)) for i in range(ambient_dim)] for vec in null
    ]


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

    def support_size(self):
        return len(self.coeffs)


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

        Raises ValueError on a wrong format_version or kind and, naming the
        shape, on a repeated id or a shape that _read_coeffs rejects.
        """
        for key, expected in (("format_version", "1"), ("kind", "shape_catalog")):
            if obj.get(key) != expected:
                raise ValueError(f"catalog {key} is {obj.get(key)!r}, expected {expected!r}")
        stat = Statistics.parse(obj["statistics"])
        catalog = cls(
            n=obj["n"],
            d=obj["d"],
            statistics=stat,
            shape_poly=GradedQPolynomial.from_json_obj(obj["shape_polynomial"]),
            max_grade=obj["max_grade"],
            shapes=[],
            state_cap=default_state_cap() if state_cap is None else check_state_cap(state_cap),
        )
        ids = set()
        for entry in obj["shapes"]:
            grade, index = entry["grade"], entry["index"]
            shape_id = f"{grade}:{index}"
            try:
                if shape_id in ids:
                    raise ValueError("listed twice")
                ids.add(shape_id)
                coeffs = catalog._read_coeffs(grade, entry)
            except ValueError as exc:
                raise ValueError(f"catalog shape {shape_id}: {exc}") from None
            catalog.shapes.append(ShapeRecord(grade, index, stat, coeffs))
        return catalog

    def _read_coeffs(self, grade, entry):
        """A stored shape's {state index: coeff}, in linear time.

        Every basis row must be a distinct state of the level of the given
        grade, which lies in 0..max_grade, with one coefficient each, and
        the coefficients must be canonical as ShapeRecord documents:
        integers, none zero, content 1, the entry at the lowest state index
        positive.
        """
        if not 0 <= grade <= self.max_grade:
            raise ValueError(f"grade {grade} is outside 0..{self.max_grade}")
        rows, texts = entry["basis"], entry["coeffs"]
        if len(rows) != len(texts):
            raise ValueError(f"{len(rows)} basis rows but {len(texts)} coefficients")
        index = self.level_basis(grade).index
        coeffs = {}
        for orbitals, text in zip(rows, texts):
            i = index.get(SlaterState.from_orbitals(orbitals, self.statistics).orbitals)
            if i is None:
                raise ValueError(
                    f"row {orbitals} is not a state of grade {grade} "
                    f"(n={self.n}, d={self.d}, {self.statistics.value})"
                )
            if i in coeffs:
                raise ValueError(f"row {orbitals} is listed twice")
            coeffs[i] = parse_fraction(text)
        ints = [c.numerator for c in coeffs.values() if c and c.denominator == 1]
        if len(ints) != len(coeffs) or gcd(*ints) != 1 or coeffs[min(coeffs)] < 0:
            raise ValueError(
                "coefficients are not canonical (integers, none zero, content 1, "
                "lowest-index entry positive)"
            )
        return {i: c.numerator for i, c in coeffs.items()}


def trivial_products(catalog, grade):
    """Every catalog shape of grade <= the target times every Euler monomial.

    Yields (record, euler, vector) with records in catalog order and, per
    record, Euler monomials of the complementary degree in
    enumerate_euler_monomials order; at a shape's own grade the only
    monomial is the empty one and the vector is a copy of the shape.  The
    vector is the exact sparse {state index: coeff} of the product over the
    target level basis, formed in the state basis one Euler factor at a
    time from the catalog's cached factor images; consecutive monomials
    share the product of their common leading factors.  Every yielded
    vector is a new dict.
    """
    for rec in catalog.shapes:
        if rec.grade > grade:
            continue
        partials = [(rec.grade, dict(rec.coeffs))]
        applied = []
        for euler in enumerate_euler_monomials(catalog.n, catalog.d, grade - rec.grade):
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
            yield rec, euler, partials[-1][1]


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


class _SectorProducts:
    """The trivial products that lie in one sector, in its own coordinates.

    A sector of dim states keeps each product as an int32 row of residues
    mod MODULUS when dim <= DENSE_SECTOR_CAP, and as the exact sparse
    {position: int} vector when keep_exact is set or the sector is too
    large for residues.  Every sector of a grade is filled before any is
    eliminated, so the rows are held at half the width elimination needs.
    """

    def __init__(self, dim, keep_exact):
        self.dim = dim
        self.count = 0
        dense = dim <= DENSE_SECTOR_CAP
        self.residues = np.zeros((dim, dim), dtype=np.int32) if dense else None
        self.exact = [] if keep_exact or not dense else None

    def add(self, vec):
        if self.residues is not None:
            if self.count == len(self.residues):
                self.residues = np.concatenate([self.residues, np.zeros_like(self.residues)])
            self.residues[self.count, list(vec)] = [v % MODULUS for v in vec.values()]
        if self.exact is not None:
            self.exact.append(vec)
        self.count += 1

    def certify(self):
        """(rank, canonical null vectors) from one elimination mod MODULUS.

        The rank mod MODULUS is at most the rank over Q, which is at most
        min(count, dim), so when it reaches that bound the rank is proven.
        Null vectors are computed when the exact products are kept and
        fewer than dim: one candidate per free column f of the reduced
        echelon form, e_f - sum_r R[r, f] e_pivots[r], lifted entry by
        entry by rational reconstruction, scaled to content 1 and accepted
        only if its integer dot product with every exact product is 0.
        The accepted candidates span the complement and have distinct
        largest indices, so they are its canonical basis, the one
        _Echelon.nullspace gives.  Returns None when the sector is too
        large, the rank falls short, an entry does not lift or a candidate
        fails its check.
        """
        if self.residues is None:
            return None
        want_null = self.exact is not None and self.count < self.dim
        mat, self.residues = self.residues[: self.count].astype(np.int64), None
        pivots = _row_reduce(mat, full=want_null)
        if len(pivots) < min(self.count, self.dim):
            return None
        null = []
        for f in sorted(set(range(self.dim)) - set(pivots)) if want_null else ():
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
            for vec in self.exact:
                if sum(c * vec.get(i, 0) for i, c in cand.items()):
                    return None
            null.append(cand)
        return len(pivots), null

    def exact_complement(self, want_null):
        """(rank, canonical null vectors or []) by the exact integer echelon."""
        ech = _Echelon(self.dim)
        for vec in self.exact:
            ech.insert(vec)
        return ech.rank, ech.nullspace() if want_null else []


def _file_products(catalog, grade, blocks):
    """File trivial_products(catalog, grade) into blocks by sector.

    Each product goes to the sector of any one of its states, in that
    sector's coordinates; products of sectors not in blocks are dropped.
    Returns the number of products, zero vectors included.
    """
    where = catalog.level_basis(grade).sector_positions
    count = 0
    for _rec, _euler, vec in trivial_products(catalog, grade):
        count += 1
        if vec:
            block = blocks.get(where[next(iter(vec))][0])
            if block is not None:
                block.add({where[i][1]: v for i, v in vec.items()})
    return count


def _sector_complements(catalog, grade, held):
    """Rank and complement of one grade's trivial products, sector by sector.

    Returns (product count, {sector: (rank, null vectors)}), with null
    vectors in level indices and only for the sectors in held.  Each
    sector is settled by its certificate or, if that fails, by the exact
    echelon.  Exact products are kept only for the held sectors and those
    too large for residues; a second pass over the products recovers them
    for any other sector whose certificate fails.
    """
    sectors = catalog.level_basis(grade).sectors
    blocks = {s: _SectorProducts(len(idx), s in held) for s, idx in sectors.items()}
    count = _file_products(catalog, grade, blocks)
    results = {s: block.certify() for s, block in blocks.items()}
    failed = [s for s, result in results.items() if result is None]
    missing = {s: _SectorProducts(blocks[s].dim, True) for s in failed if blocks[s].exact is None}
    if missing:
        _file_products(catalog, grade, missing)
        blocks.update(missing)
    for s in failed:
        results[s] = blocks[s].exact_complement(s in held)
    return count, {
        s: (rank, [{sectors[s][i]: v for i, v in vec.items()} for vec in null])
        for s, (rank, null) in results.items()
    }


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
    catalog = ShapeCatalog(
        n=n,
        d=d,
        statistics=statistics,
        shape_poly=poly,
        max_grade=max_grade,
        shapes=[],
        state_cap=state_cap,
    )
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
            catalog.shapes.append(
                ShapeRecord(
                    grade=grade,
                    index=idx,
                    statistics=statistics,
                    coeffs=dict(vec),
                )
            )
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
    return SpanReport(
        grade=grade,
        dimension=dimension,
        vector_count=count,
        rank=rank,
        passed=rank == dimension,
    )
