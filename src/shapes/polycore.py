"""Exact multivariate polynomial algebra over formal powers.

A single-particle state is an orbital vector of d non-negative exponents
(node counts per axis).  A monomial assigns one orbital vector to each of
the n particles and is stored as a flat tuple of length n*d (row-major:
particle index major, axis minor).  Polynomials are finitely supported maps
from monomials to exact rationals.

The canonical order used everywhere compares orbital vectors by total
degree first, then lexicographically on the entries, and compares monomials
particle row by particle row.  This order is multiplicative, it fixes every
determinant's phase repo-wide, and it makes the leading monomial of each
Slater/permanent state the descending-diagonal assignment.  canonical_rows
is the one function that sorts rows into that order and gives the phase
of the sort.

The orbitals of each dimension are numbered once, in ascending canonical
order (orbital_codes), so comparing two codes compares their orbitals.  A
basis state is the descending row of its orbitals' codes, which is its
canonical row order, and a level is one int32 array of such rows
(enumerate_basis).  Orbitals are decoded only at the edges.  A
SlaterState wraps an orbital tuple with its statistics there: expansion,
and orbitals from anywhere else (files, users, tests), which enter
through SlaterState.from_orbitals, which checks them and sorts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, repeat
from math import comb
from operator import add

import numpy as np

from .counting import Statistics, FERMION
from .errors import InternalConsistencyError

AXIS_NAMES = "tuvw"

# Batched passes over code rows work on chunks of at most this many bytes:
# building and keying a level (enumerate_basis, LevelBasis), forming
# products (products, where a chunk of a large grade may take a fixed
# share of it instead), summing density samples (realize) and contracting
# Coulomb tables (coulomb).
CHUNK_BYTES = 1 << 20


def chunk_rows(row_bytes):
    """How many rows of row_bytes bytes each a chunk holds: as many as fit
    in CHUNK_BYTES, and at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


def chunks(ends, parts=None):
    """Consecutive slices of items, given the running total of their sizes
    in bytes: each holds at most CHUNK_BYTES, or a parts-th of the total if
    parts is given and that is more, or one item."""
    bound = max(CHUNK_BYTES, int(ends[-1]) // parts) if parts and len(ends) else CHUNK_BYTES
    lo, done = 0, 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, done + bound, side="right")))
        yield slice(lo, hi)
        lo, done = hi, ends[hi - 1]


def axis_name(axis):
    return AXIS_NAMES[axis] if axis < len(AXIS_NAMES) else f"x{axis}"


def orbital_key(orbital):
    """Sort key realizing the canonical order on orbital vectors."""
    return (sum(orbital), orbital)


def monomial_rows(flat, d):
    return tuple(flat[i : i + d] for i in range(0, len(flat), d))


def monomial_sort_key(flat, d):
    """Sort key for monomials: per-particle orbital keys, row by row."""
    return tuple((sum(flat[i : i + d]), flat[i : i + d]) for i in range(0, len(flat), d))


def as_exact(value):
    """Normalize a coefficient to an exact number: int when integral,
    Fraction otherwise.  Python ints and Fractions mix exactly."""
    if isinstance(value, int):
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


class ExactPolynomial:
    """Finitely supported map from n*d exponent monomials to Fractions."""

    __slots__ = ("n", "d", "terms")

    def __init__(self, n, d, terms=None):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        self.n = n
        self.d = d
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != n * d:
                raise ValueError("monomial length does not match n*d")
            c = as_exact(coeff)
            if c:
                self.terms[tuple(mono)] = c

    @classmethod
    def _raw(cls, n, d, terms):
        # Internal: terms already clean (tuple keys, nonzero Fractions).
        poly = cls.__new__(cls)
        poly.n = n
        poly.d = d
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, n, d):
        return cls._raw(n, d, {})

    @classmethod
    def constant(cls, n, d, value=1):
        c = as_exact(value)
        if not c:
            return cls.zero(n, d)
        return cls._raw(n, d, {(0,) * (n * d): c})

    @classmethod
    def variable(cls, n, d, particle, axis, power=1):
        """The single monomial t_particle^power on the given axis."""
        flat = [0] * (n * d)
        flat[particle * d + axis] = power
        return cls._raw(n, d, {tuple(flat): 1})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.n != other.n or self.d != other.d:
            raise ValueError(
                f"polynomials over different variables: "
                f"(n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def is_homogeneous(self):
        grades = {sum(m) for m in self.terms}
        return len(grades) <= 1

    def grade(self):
        """Common total degree; None for the zero polynomial."""
        grades = {sum(m) for m in self.terms}
        if not grades:
            return None
        if len(grades) > 1:
            raise ValueError("polynomial is not homogeneous")
        return grades.pop()

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=lambda m: monomial_sort_key(m, self.d))

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.n == other.n and self.d == other.d and self.terms == other.terms

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            nv = out.get(mono, 0) + coeff
            if nv:
                out[mono] = nv
            else:
                out.pop(mono, None)
        return ExactPolynomial._raw(self.n, self.d, out)

    def __neg__(self):
        return ExactPolynomial._raw(
            self.n, self.d, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_exact(other)
            if not c:
                return ExactPolynomial.zero(self.n, self.d)
            return ExactPolynomial._raw(
                self.n, self.d, {m: c * v for m, v in self.terms.items()}
            )
        self._check_compatible(other)
        out = {}
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(map(add, ma, mb))
                nv = get(key, 0) + ca * cb
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return ExactPolynomial._raw(self.n, self.d, out)

    __rmul__ = __mul__

    # -- presentation ---------------------------------------------------------

    def _format_monomial(self, mono):
        factors = []
        for i in range(self.n):
            for ax in range(self.d):
                e = mono[i * self.d + ax]
                if e == 1:
                    factors.append(f"{axis_name(ax)}{i + 1}")
                elif e > 1:
                    factors.append(f"{axis_name(ax)}{i + 1}^{e}")
        return "*".join(factors) if factors else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda m: monomial_sort_key(m, self.d), reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            body = self._format_monomial(m)
            mag = abs(c)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"ExactPolynomial(n={self.n}, d={self.d}, {len(self.terms)} terms)"

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        monos = sorted(self.terms, key=lambda m: monomial_sort_key(m, self.d), reverse=True)
        return {
            "n": self.n,
            "d": self.d,
            "terms": [
                {
                    "matrix": [list(r) for r in monomial_rows(m, self.d)],
                    "coeff": format_fraction(self.terms[m]),
                }
                for m in monos
            ],
        }

    @classmethod
    def from_json_obj(cls, obj):
        """Read a polynomial as to_json_obj writes it, checking every term.

        Raises ValueError if obj is not an object, n or d is not a positive
        integer, or terms is not a list of objects, and, naming the term, on
        a missing matrix or coefficient, a matrix that is not n x d
        non-negative integers, a matrix listed twice or a coefficient that
        is not a fraction string.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a polynomial is a JSON object, got {type(obj).__name__}")
        n, d = json_int(obj, "n", 1), json_int(obj, "d", 1)
        terms = {}
        for position, entry in enumerate(json_list(obj, "terms")):
            if not isinstance(entry, dict):
                raise ValueError(f"polynomial terms entry {entry!r} is not an object")
            matrix = json_field(entry, "matrix", f"polynomial terms entry {position}")
            text = json_field(entry, "coeff", f"polynomial term {matrix}")
            try:
                if not (
                    isinstance(matrix, list)
                    and len(matrix) == n
                    and all(isinstance(r, list) and len(r) == d for r in matrix)
                ):
                    raise ValueError(f"matrix is not {n} x {d}")
                flat = tuple(e for row in matrix for e in row)
                if not all(type(e) is int and e >= 0 for e in flat):
                    raise ValueError("exponents must be non-negative integers")
                if flat in terms:
                    raise ValueError("listed twice")
                terms[flat] = parse_fraction(text)
            except ValueError as exc:
                raise ValueError(f"polynomial term {matrix}: {exc}") from None
        return cls(n, d, terms)


def format_fraction(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(text):
    """The Fraction a coefficient string spells, else ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"coefficient {text!r} is not a fraction string")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


def json_field(obj, key, owner):
    """obj[key], else a ValueError naming the missing key and its owner."""
    if key not in obj:
        raise ValueError(f"{owner} has no {key!r}")
    return obj[key]


def json_int(obj, key, minimum):
    """obj[key] if it is an integer (not a bool) >= minimum, else ValueError."""
    value = obj.get(key)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def json_list(obj, key):
    """obj[key] if it is a list, else ValueError."""
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def canonical_rows(keys, fermion):
    """Rows in canonical order, and the phase of putting them there.

    keys are the rows' sort keys in the canonical order, in any order:
    orbital codes (OrbitalCodes) inside the pipeline, orbital_key tuples
    for orbitals from elsewhere.  Returns them sorted descending, as a
    list, with the phase of that sort: 1 for a permanent;
    for a determinant, -1 per pair of rows the sort exchanges, or 0 when
    two rows coincide.  This is the one place the phase convention lives
    for rows in Python; LevelBasis.locate_signed gives the same phase for
    numpy batches of code rows.
    """
    rows = sorted(keys, reverse=True)
    if not fermion:
        return rows, 1
    sign = 1
    for a, ka in enumerate(keys):
        for kb in keys[a + 1 :]:
            if ka < kb:
                sign = -sign
            elif ka == kb:
                return rows, 0
    return rows, sign


class OrbitalCodes:
    """The d-dimensional orbitals, numbered in ascending canonical order.

    An orbital's code is its position in the order orbital_key gives
    (degree first, then lexicographic), so comparing two codes compares
    their orbitals.  The numbering grows a degree at a time and is never
    renumbered: the codes of degree <= D are the same however far it has
    grown.  orbitals, degrees and index map codes to orbitals and degrees
    and orbitals to codes; encode and decode do so for a whole state.  The
    code maps of an Euler factor's shift and of an axis permutation are
    kept here too, one int64 array per (k, axis) and per permutation,
    grown with the numbering by appending the new orbitals' codes, and so
    is the (codes x d) int64 array of their per-axis degrees.
    """

    def __init__(self, d):
        self.d = d
        self.orbitals = []
        self.degrees = []
        self.index = {}
        self._counts = []
        self._shifts = {}
        self._permutations = {}
        self._axis_degrees = np.empty((0, d), dtype=np.int64)

    def grow(self, max_degree):
        """Number every orbital of degree <= max_degree; return how many there are."""
        for degree in range(len(self._counts), max_degree + 1):
            for orbital in _compositions(self.d, degree):
                self.index[orbital] = len(self.orbitals)
                self.orbitals.append(orbital)
                self.degrees.append(degree)
            self._counts.append(len(self.orbitals))
        return self._counts[max_degree]

    def encode(self, orbitals):
        """The codes of d-dimensional orbitals, numbering more as needed."""
        orbitals = [tuple(o) for o in orbitals]
        if any(len(o) != self.d or min(o) < 0 for o in orbitals):
            raise ValueError(f"{orbitals} are not {self.d}-dimensional orbitals")
        self.grow(max(map(sum, orbitals), default=0))
        return tuple(self.index[o] for o in orbitals)

    def decode(self, codes):
        """The orbitals of codes, in the same order."""
        return tuple(self.orbitals[c] for c in codes)

    def code_rows(self, rows, n, max_degree):
        """The codes of rows of orbitals (sequences of d ints), one int64
        row of n codes each, coded in one pass.  An orbital of degree above
        max_degree codes as grow(max_degree) or above, which no state of
        that degree holds, and so does every orbital of a row not of n."""
        limit = self.grow(max_degree)
        if set(map(len, rows)) - {n}:
            blank = ((),) * n  # codes limit
            rows = [row if len(row) == n else blank for row in rows]
        coded = map(self.index.get, map(tuple, chain.from_iterable(rows)), repeat(limit))
        return np.fromiter(coded, dtype=np.int64, count=len(rows) * n).reshape(len(rows), n)

    def axis_degrees(self, max_degree):
        """table[c]: the per-axis degrees of orbital c, for every code c of
        degree <= max_degree, in a (codes x d) int64 array."""
        known, limit = len(self._axis_degrees), self.grow(max_degree)
        if known < limit:
            new = np.array(self.orbitals[known:limit], dtype=np.int64).reshape(-1, self.d)
            self._axis_degrees = np.concatenate((self._axis_degrees, new))
        return self._axis_degrees

    def shift(self, k, axis, max_degree):
        """table[c]: the code of orbital c raised by k on axis, for every
        code c of degree <= max_degree, in an int64 array."""
        if len(self._shifts.get((k, axis), ())) < self.grow(max_degree):
            self.grow(max_degree + k)
            image = lambda o: o[:axis] + (o[axis] + k,) + o[axis + 1 :]
            self._extend(self._shifts, (k, axis), image, max_degree)
        return self._shifts[k, axis]

    def permutation(self, perm, max_degree):
        """table[c]: the code of (o[perm[0]], ..., o[perm[d-1]]) for the
        orbital o of code c, for every code c of degree <= max_degree, in an
        int64 array."""
        if len(self._permutations.get(perm, ())) < self.grow(max_degree):
            self._extend(self._permutations, perm, lambda o: tuple(o[a] for a in perm), max_degree)
        return self._permutations[perm]

    def _extend(self, tables, key, image, max_degree):
        """Append to the code map tables[key] the codes of image(o) for the
        orbitals o from its end up to degree max_degree."""
        table = tables.get(key, np.empty(0, dtype=np.int64))
        index = self.index
        new = [index[image(o)] for o in self.orbitals[len(table) : self._counts[max_degree]]]
        tables[key] = np.append(table, np.array(new, dtype=np.int64))


def _compositions(d, total):
    """The d-tuples of non-negative integers summing to total, ascending."""
    if d == 1:
        return [(total,)]
    return [
        (first,) + rest for first in range(total + 1) for rest in _compositions(d - 1, total - first)
    ]


@cache
def orbital_codes(d):
    """The one numbering of d-dimensional orbitals, grown on demand."""
    if d < 1:
        raise ValueError("need d >= 1")
    return OrbitalCodes(d)


def sector_of(orbitals):
    """The tuple of per-axis degree totals of a state's orbitals."""
    return tuple(map(sum, zip(*orbitals)))


def multiplicity_factorials(orbitals):
    """Product of the multiplicities' factorials of canonical orbitals (equal
    ones are adjacent); 1 for distinct (fermion) orbitals."""
    coeff = run = 1
    for prev, cur in zip(orbitals, orbitals[1:]):
        run = run + 1 if prev == cur else 1
        coeff *= run
    return coeff


@dataclass(frozen=True)
class SlaterState:
    """n orbital vectors in canonical order, read as a determinant or permanent.

    The constructor takes the orbitals as they are: sorted descending in
    the canonical order, pairwise distinct for fermions (Pauli), repeats
    allowed for bosons.  The determinant/permanent phase is fixed by this
    row order.  A level's code rows (enumerate_basis) decode to such tuples;
    from_orbitals is the checked entry for orbitals from anywhere else.
    """

    orbitals: tuple
    statistics: Statistics

    @classmethod
    def from_orbitals(cls, orbitals, statistics):
        """Build a state from orbitals in any order, checking each one.

        The orbitals must be non-empty, of one dimension, with non-negative
        integer exponents (a float or a bool is refused, not truncated), and
        pairwise distinct for fermions; else ValueError.  They are sorted
        into canonical order and the phase of the sort is dropped: the
        state is the one with canonical rows.
        """
        orbs = tuple(tuple(o) for o in orbitals)
        if not orbs:
            raise ValueError("a state needs at least one orbital")
        d = len(orbs[0])
        for orb in orbs:
            if len(orb) != d:
                raise ValueError("orbitals of mixed dimension")
            for e in orb:
                if type(e) is not int:
                    raise ValueError(f"orbital exponent {e!r} is not an integer")
                if e < 0:
                    raise ValueError("negative exponent in orbital")
        rows, phase = canonical_rows([orbital_key(o) for o in orbs], statistics is FERMION)
        if not phase:
            raise ValueError("fermion orbitals must be pairwise distinct")
        return cls(tuple(orb for _deg, orb in rows), statistics)

    @property
    def n(self):
        return len(self.orbitals)

    @property
    def d(self):
        return len(self.orbitals[0])

    @property
    def grade(self):
        return sum(sum(o) for o in self.orbitals)

    def expand(self):
        """Expand the Slater determinant (fermion) or permanent (boson).

        Sums over all n! arrangements of the orbitals on the particles,
        each with the phase canonical_rows gives its rows (always 1 for a
        permanent, so its rows are not sorted).  The result is homogeneous
        of the state's grade with integer coefficients.
        """
        fermion = self.statistics is FERMION
        terms = {}
        for arrangement in permutations([orbital_key(o) for o in self.orbitals]):
            sign = canonical_rows(arrangement, True)[1] if fermion else 1
            key = tuple(e for _deg, orb in arrangement for e in orb)
            nv = terms.get(key, 0) + sign
            if nv:
                terms[key] = nv
            else:
                terms.pop(key, None)
        return ExactPolynomial._raw(self.n, self.d, terms)

    def __str__(self):
        inner = ",".join("(" + ",".join(map(str, o)) + ")" for o in self.orbitals)
        return f"|{inner}|"


def euler_power(m, k, axis, n, d):
    """k-th monomial-wise power of e_m on one axis; k = 1 gives e_m itself.

    Powers are taken subset product by subset product (a plethysm with the
    power sum), so distinct (m, k) on one axis have disjoint supports:
    e_1^2 -> t_1^2 + t_2^2 + ..., never (t_1 + t_2 + ...)^2.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    if k < 1:
        raise ValueError("need k >= 1")
    terms = {}
    for subset in combinations(range(n), m):
        flat = [0] * (n * d)
        for i in subset:
            flat[i * d + axis] = k
        terms[tuple(flat)] = 1
    return ExactPolynomial._raw(n, d, terms)


@dataclass(frozen=True, slots=True)
class EulerMonomial:
    """A monomial of Euler bosons: exponents[axis][m-1] = power of e_m(axis).

    Powers are interpreted monomial-wise as in euler_power, so the
    materialized polynomial is the product of one euler_power factor per
    nonzero exponent.  The empty monomial materializes to the constant 1.
    """

    n: int
    d: int
    exponents: tuple

    @property
    def degree(self):
        return sum(
            m * k
            for per_axis in self.exponents
            for m, k in enumerate(per_axis, start=1)
        )

    def factors(self):
        """The factors e_m^[k](axis) as (m, k, axis), axis-major, m ascending."""
        return [
            (m, k, axis)
            for axis, per_axis in enumerate(self.exponents)
            for m, k in enumerate(per_axis, start=1)
            if k
        ]

    def materialize(self):
        poly = ExactPolynomial.constant(self.n, self.d)
        for m, k, axis in self.factors():
            poly = poly * euler_power(m, k, axis, self.n, self.d)
        return poly

    def label(self):
        names = []
        for m, k, axis in self.factors():
            name = f"e{m}({axis_name(axis)})"
            names.append(name if k == 1 else f"{name}^{k}")
        return "*".join(names) if names else "1"

    def __str__(self):
        return self.label()


class EulerTable:
    """Every Euler-boson monomial of degree <= max_degree, numbered.

    Monomial i has exponents[i][axis][m - 1], the power of e_m(axis), and
    adds shifts[i][axis] to the degree on each axis.  The numbers run by
    degree, those of degree D from starts[D] to starts[D + 1] - 1 in
    enumerate_euler_monomials order, whatever max_degree; 0 is the empty
    monomial.  Any other monomial is its last factor (EulerMonomial.factors)
    times its prefix, the monomial of the factors before it: prefix[i] is
    the prefix's number, and factor_of(factor[i]) the factor as (m, k, axis).

    Built by one numpy pass per exponent of an e_m with m <= max_degree, in
    factor order: each monomial of the exponents before it is extended by
    every power that keeps its degree <= max_degree.  That keeps
    lexicographic order, the enumeration order, and a stable sort by degree
    keeps it within each degree.
    """

    def __init__(self, n, d, max_degree):
        self.n, self.d = n, d
        exponents = np.zeros((1, n * d), dtype=np.int64)
        degrees, prefix, factor = np.zeros(1, dtype=np.int64), np.full(1, -1), np.full(1, -1)
        for position in range(n * d):  # e_m(axis) at axis * n + m - 1
            m = position % n + 1
            if m > max_degree:
                continue
            counts = (max_degree - degrees) // m + 1
            firsts = np.cumsum(counts) - counts  # each monomial's power-0 extension
            parent = np.repeat(np.arange(len(counts)), counts)
            power = np.arange(len(parent)) - firsts[parent]
            raised = power > 0
            # A raised extension's prefix is its power-0 sibling; the others
            # keep their parent's prefix, now that prefix's power-0 extension.
            kept = np.where(prefix[parent] < 0, -1, firsts[prefix[parent]])
            prefix = np.where(raised, firsts[parent], kept)
            factor = np.where(raised, power * n * d + position, factor[parent])
            exponents = exponents[parent]
            exponents[:, position] = power
            degrees = degrees[parent] + m * power
        order = np.argsort(degrees, kind="stable")
        self.prefix = np.where(prefix[order] < 0, -1, np.argsort(order)[prefix[order]])
        self.degrees, self.factor = degrees[order], factor[order]
        self.exponents = exponents[order].reshape(-1, d, n)
        self.starts = np.searchsorted(self.degrees, np.arange(max_degree + 2))
        self.shifts = self.exponents @ np.arange(1, n + 1)

    def __len__(self):
        return len(self.degrees)

    def factor_of(self, code):
        """The factor e_m^[k](axis) of a factor code, as (m, k, axis)."""
        k, position = divmod(code, self.n * self.d)
        return position % self.n + 1, k, position // self.n

    def monomial(self, i):
        """Monomial i as an EulerMonomial."""
        return EulerMonomial(self.n, self.d, tuple(map(tuple, self.exponents[i].tolist())))


@cache
def euler_table(n, d, max_degree):
    """The numbering of the Euler-boson monomials of degree <= max_degree."""
    return EulerTable(n, d, max_degree)


def enumerate_euler_monomials(n, d, degree):
    """All Euler-boson monomials of the given total degree.

    Multi-indices {k_(m,axis)} with sum over (m, axis) of m*k = degree, in a
    deterministic order (axis-major positions, exponents ascending).  Degree
    0 yields exactly the empty monomial.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    table = euler_table(n, d, degree)
    return [table.monomial(i) for i in range(table.starts[degree], table.starts[degree + 1])]


def enumerate_basis(n, d, grade, statistics=FERMION):
    """The code rows of all Slater/permanent states of the given grade.

    A state is the descending row of its orbitals' codes (orbital_codes),
    its canonical row order.  Returns an int32 (states x n) array with one
    state per row, rows descending (equivalently, descending by leading
    monomial), which is the coordinate order used for level bases and
    complements.

    Built by one numpy pass per slot count j = 2..n from the rows of j - 1
    codes, which are grouped by degree sum and descending within a group.
    A row of j codes and sum s is a code c followed by a row of sum
    s - degree(c) whose first code is below c (fermions) or at most c
    (bosons); those rows are a tail of their group.  A row's key (sum,
    -first code) rises along the rows, so one searchsorted per pair (s, c)
    finds that tail, and np.repeat gathers it.  Taking the pairs by s
    ascending, c descending keeps every group descending.  A row whose
    first code has degree g leaves n - j slots of degree at least g, so
    rows of sum s are kept only while s + (n - j) g <= grade.
    """
    if grade < 0:
        raise ValueError("grade must be non-negative")
    codes = orbital_codes(d)
    count = codes.grow(grade)
    width = count + 1
    degrees = np.array(codes.degrees[:count], dtype=np.int64)
    total = np.repeat(np.arange(grade + 1), count)
    code = np.tile(np.arange(count - 1, -1, -1), grade + 1)
    degree = degrees[code]
    pairs = degree <= total
    total, code, degree = total[pairs], code[pairs], degree[pairs]
    head = total * width + (count - code)  # the key of the rows (s, c, ...)
    tail = head - degree * width  # (s - g, c): where the rows that may follow c start
    end = (total - degree + 1) * width  # below every key of sum s - g + 1
    first = (total == degree) & ((total == grade) if n == 1 else (degree * n <= grade))
    rows = code[first, None].astype(np.int32)
    keys = head[first]
    side = "right" if statistics is FERMION else "left"
    for j in range(2, n + 1):
        free = n - j
        fits = total + free * degree <= grade if free else total == grade
        lo = np.searchsorted(keys, tail[fits], side=side)
        sizes = np.searchsorted(keys, end[fits]) - lo
        ends = np.cumsum(sizes)
        grown = np.empty((int(sizes.sum()), j), dtype=np.int32)
        # Row r of pair p takes code[p] and the row lo[p] + r - (ends[p] - sizes[p]);
        # the rows are gathered in chunks of about 4 int64 values and j codes each.
        step = chunk_rows(32 + 4 * j)
        for at in range(0, len(grown), step):
            r = np.arange(at, min(at + step, len(grown)))
            p = np.searchsorted(ends, r, side="right")
            grown[r, 0] = code[fits][p]
            grown[r, 1:] = rows[lo[p] - ends[p] + sizes[p] + r]
        rows = grown
        if free:  # the last pass's keys are never read
            keys = np.repeat(head[fits], sizes)
    return rows


class CountTable:
    """The canonical code rows counted by length, bound and degree sum, in
    the order of enumerate_basis: a state's index without its level.

    table[m, c, s] is the number of canonical rows of m codes (descending,
    strictly for fermions), all below code c, with degree sum s, for codes
    of degree <= grade and s <= grade.  A row's first code c' leaves a row
    of m - 1 codes below c' (fermions) or c' + 1 (bosons) and of sum
    s - degree(c'), so one cumulative sum over c' per m builds it, and
    table[n, -1, g] is the dimension of level g.  Its entries are int64
    while C(codes + n, n), which bounds them, is below 2^63, and Python
    ints above.
    """

    def __init__(self, n, d, grade, statistics):
        self.n, self.grade, self.fermion = n, grade, statistics is FERMION
        codes = orbital_codes(d)
        limit = codes.grow(grade)
        self.degrees = codes.axis_degrees(grade)[:limit].sum(axis=1)
        dtype = np.int64 if comb(limit + n, n) < 2**63 else object
        table = self.table = np.zeros((n + 1, limit + 1, grade + 1), dtype=dtype)
        table[0, :, 0] = 1
        rest = np.arange(grade + 1) - self.degrees[:, None]  # (c', s): s - degree(c')
        short = rest < 0
        np.maximum(rest, 0, out=rest)
        below = np.arange(limit)[:, None] + (not self.fermion)
        for m in range(1, n + 1):
            added = table[m - 1, below, rest]
            added[short] = 0
            np.cumsum(added, axis=0, out=table[m, 1:])

    def dimension(self, grade):
        """The number of states of the level of a grade up to the table's."""
        return int(self.table[self.n, -1, grade])

    def rank(self, rows, grade):
        """The index in the level of the given grade (at most the table's),
        one int or one per row, of each row of a (k x n) integer code array
        that is one of its states in canonical order, else -1.

        Rows before r in enumeration order are those greater at the first
        code j where they differ, so the index of r is the sum over j of
        table[n - j, b_j, g_j] - table[n - j, r_j + 1, g_j]: g_j is grade
        minus the degrees of r_0 .. r_(j-1), b_0 the table's code count
        and b_j = r_(j-1), plus 1 for bosons.
        """
        grade = np.broadcast_to(grade, len(rows))
        steps = rows[:, :-1] - rows[:, 1:]
        valid = (steps > 0 if self.fermion else steps >= 0).all(axis=1)
        valid &= (rows < len(self.degrees)).all(axis=1)
        degrees = self.degrees[np.where(valid[:, None], rows, 0)]
        valid &= degrees.sum(axis=1) == grade
        rows, degrees = rows[valid], degrees[valid]
        left = grade[valid, None] - np.cumsum(degrees, axis=1) + degrees
        bounds = np.empty_like(rows)
        bounds[:, 0] = len(self.degrees)
        bounds[:, 1:] = rows[:, :-1] + (not self.fermion)
        table, slots = self.table, np.arange(self.n, 0, -1)
        ranks = np.full(len(valid), -1, dtype=table.dtype)
        ranks[valid] = (table[slots, bounds, left] - table[slots, rows + 1, left]).sum(axis=1)
        return ranks


@cache
def count_table(n, d, grade, statistics=FERMION):
    """The CountTable of n codes of d-dimensional orbitals through grade."""
    return CountTable(n, d, grade, statistics)


def vandermonde(n, axis=0, d=1):
    """The product of (t_i - t_j) over i < j on one axis.

    Equals the expansion of the one-dimensional fermion ground state (orbital
    degrees n-1, ..., 1, 0) with the canonical phase; the global sign is +1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    poly = ExactPolynomial.constant(n, d)
    for i in range(n):
        for j in range(i + 1, n):
            binomial = ExactPolynomial.variable(n, d, i, axis) - ExactPolynomial.variable(
                n, d, j, axis
            )
            poly = poly * binomial
    return poly


def divide_exact(dividend, divisor):
    """Exact multivariate division by iterated leading-term elimination.

    Requires the divisor to divide the dividend exactly; otherwise an
    InternalConsistencyError reports the offending leading monomial.
    """
    dividend._check_compatible(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    d = dividend.d
    div_lead = divisor.leading_monomial()
    div_lead_coeff = divisor.terms[div_lead]
    quotient = {}
    rem = ExactPolynomial._raw(dividend.n, d, dict(dividend.terms))
    while not rem.is_zero:
        lead = rem.leading_monomial()
        diff = tuple(a - b for a, b in zip(lead, div_lead))
        if any(e < 0 for e in diff):
            raise InternalConsistencyError(
                f"polynomial division has nonzero remainder; stuck at "
                f"leading monomial {lead}"
            )
        coeff = Fraction(rem.terms[lead]) / div_lead_coeff
        quotient[diff] = coeff
        rem = rem - ExactPolynomial(dividend.n, d, {diff: coeff}) * divisor
    return ExactPolynomial(dividend.n, d, quotient)
