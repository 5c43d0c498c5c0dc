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
Two laws are hard assertions at every grade: the products are linearly
independent (the free-module statement), and the complement dimension
matches the shape polynomial coefficient.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

from .counting import (
    GradedQPolynomial,
    Statistics,
    FERMION,
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


def generate_shapes(n, d, statistics=FERMION, max_grade=None, state_cap=None):
    """Build the full shape catalog grade by grade.

    Ground-grade shapes are the basis states themselves.  At every higher
    grade the trivial span is lower shapes times Euler monomials; every
    product must be independent of the ones before it, and the complement
    dimension must equal the shape polynomial coefficient (else an
    InternalConsistencyError is raised with diagnostics).  The
    result is deterministic: two runs produce identical catalogs.
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
    ground = poly.lowest_degree()
    for grade in range(ground, max_grade + 1):
        expected = poly.coefficient(grade)
        basis = catalog.level_basis(grade)
        if grade == ground:
            if len(basis) != expected:
                raise InternalConsistencyError(
                    f"ground level at grade {grade} has {len(basis)} states but "
                    f"the shape polynomial predicts {expected}"
                )
            new_vectors = [{i: 1} for i in range(len(basis))]
        else:
            ech = _Echelon(len(basis))
            products = trivial_products(catalog, grade)
            for count, (_rec, _euler, vec) in enumerate(products, start=1):
                if ech.insert(vec) is None:
                    raise InternalConsistencyError(
                        f"trivial products at grade {grade} are not free: "
                        f"{count} vectors have rank {ech.rank}"
                    )
            new_vectors = ech.nullspace()
            if len(new_vectors) != expected:
                raise InternalConsistencyError(
                    f"complement dimension mismatch at grade {grade}: expected "
                    f"{expected} new shapes, found {len(new_vectors)} "
                    f"(trivial rank {ech.rank} in dimension {len(basis)})"
                )
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
    so the grade's own shapes participate).  Reports the exact rank against
    the level's dimension.
    """
    basis = catalog.level_basis(grade)
    ech = _Echelon(len(basis))
    count = 0
    for _rec, _euler, vec in trivial_products(catalog, grade):
        ech.insert(_int_rows(vec))
        count += 1
    return SpanReport(
        grade=grade,
        dimension=len(basis),
        vector_count=count,
        rank=ech.rank,
        passed=ech.rank == len(basis),
    )
