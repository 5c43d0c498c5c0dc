"""The oscillator realization and densities on grids.

The abstract formal power t^k maps to phi_k(u) = H_k(u) exp(-u^2/2) of the
scaled coordinate u = x / length_scale.  The mapping is applied monomial by
monomial, never to factored expressions (which ExactPolynomial enforces by
always being expanded).

One evaluator serves both evaluation and densities: the normalized Hermite
functions psi_k = phi_k / sqrt(2^k k! sqrt(pi)), by their three-term
recurrence, bounded by pi^(-1/4).  realize_polynomial scales them back to
phi_k.  A density traces out the spectator particles by exact Hermite
orthogonality, <phi_a|phi_b> = delta_ab 2^a a! sqrt(pi), so only monomials
with equal spectator rows pair up, with exact rational weights; one sampler
then sums the retained particles' psi_k with their norms folded into those
weights, so neither the samples nor the weights overflow or underflow at
high orbital index.  The one-particle density and the diagonal
two-particle cut differ only in which grid axis drives which coordinate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coulomb import hermite_norm_rational
from .errors import InternalConsistencyError


@dataclass(frozen=True)
class Realization:
    """The oscillator basis behind the formal powers, at one length scale."""

    length_scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.length_scale < math.inf:
            raise ValueError(
                f"length scale must be finite and positive, got {self.length_scale}"
            )


@dataclass(frozen=True)
class Axis:
    """One grid axis: name, inclusive range, sample count."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2 or not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(
                f"bad axis {self.name}: need finite lo < hi and count >= 2"
            )

    def points(self):
        return np.linspace(self.lo, self.hi, self.count)

    @property
    def step(self):
        return (self.hi - self.lo) / (self.count - 1)


def parse_grid(spec):
    """Parse a grid spec like "x:-4:4:81,y:-4:4:81" into a list of Axis."""
    axes = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 4:
            raise ValueError(f"bad axis spec {part!r} (want name:lo:hi:count)")
        name, lo, hi, count = fields
        axes.append(Axis(name, float(lo), float(hi), int(count)))
    return axes


@dataclass
class DensityGrid:
    """Sampled non-negative density with its declared normalization."""

    axes: list
    values: np.ndarray
    normalization: float

    def riemann_integral(self):
        cell = 1.0
        for ax in self.axes:
            cell *= ax.step
        return float(self.values.sum() * cell)

    def write_csv(self, path):
        grids = np.meshgrid(*[ax.points() for ax in self.axes], indexing="ij")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([ax.name for ax in self.axes] + ["value"])
            flat = [g.ravel() for g in grids] + [self.values.ravel()]
            for row in zip(*flat):
                writer.writerow([f"{v:.12e}" for v in row])

    def metadata(self):
        return {
            "format_version": "1",
            "kind": "density_grid",
            "axes": [
                {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "count": ax.count}
                for ax in self.axes
            ],
            "normalization": self.normalization,
            "riemann_integral": self.riemann_integral(),
        }

    def write_metadata(self, path):
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def realize_polynomial(poly, realization):
    """Evaluator R^(n*d) -> R for an expanded polynomial.

    Returns a callable taking points of shape (..., n, d); coordinates are
    divided by the realization length scale before the orbital functions are
    applied.
    """
    n, d = poly.n, poly.d
    terms = [(mono, float(coeff)) for mono, coeff in poly.terms.items()]
    kmax = max(map(max, poly.terms), default=0)
    # norms[k] = sqrt(2^k k! sqrt(pi)) turns psi_k back into phi_k.
    norms = [math.pi**0.25]
    for k in range(1, kmax + 1):
        norms.append(norms[-1] * math.sqrt(2 * k))

    def evaluate(points):
        x = np.asarray(points, dtype=float)
        if x.shape[-2:] != (n, d):
            raise ValueError(f"points must have shape (..., {n}, {d})")
        # One table per monomial position: particle i, axis ax at i * d + ax.
        u = (x / realization.length_scale).reshape(x.shape[:-2] + (n * d,))
        tables = [
            [norm * psi for norm, psi in zip(norms, _hermite_functions(kmax, u[..., j]))]
            for j in range(n * d)
        ]
        total = np.zeros(x.shape[:-2])
        for mono, coeff in terms:
            factor = np.full(x.shape[:-2], coeff)
            for table, k in zip(tables, mono):
                factor = factor * table[k]
            total = total + factor
        return total

    return evaluate


def _reduced_density_weights(poly, retained):
    """Contract |Psi|^2 over the spectator particles retained..n-1.

    Returns {(bra rows, ket rows) of particles 0..retained-1: weight}, the
    spectator-integrated coefficient over the full overlap <Psi|Psi>, as
    the weight of the rows' normalized Hermite functions.  Hermite
    orthogonality pairs a bra and a ket monomial only when their spectator
    exponents agree, so the terms are bucketed by those exponents.  The
    weight's square, which takes the rows' norms 2^a a! (their sqrt(pi)
    cancel against the overlap's), is exact and is rounded to a float once,
    before its square root.
    """
    d = poly.d
    norm = 0
    buckets = {}
    for mono, coeff in poly.terms.items():
        norm += coeff * coeff * hermite_norm_rational(mono)
        rows = tuple(mono[p * d : (p + 1) * d] for p in range(retained))
        buckets.setdefault(mono[retained * d :], []).append((rows, coeff))
    sums = {}
    for key, bucket in buckets.items():
        spect = hermite_norm_rational(key)
        for rows_a, ca in bucket:
            for rows_b, cb in bucket:
                pair = (rows_a, rows_b)
                sums[pair] = sums.get(pair, 0) + spect * ca * cb
    weights = {}
    for pair, w in sums.items():
        if w:
            square = Fraction(w * w, norm * norm)
            for row in pair[0] + pair[1]:
                square *= hermite_norm_rational(row)
            mag = math.sqrt(square)
            weights[pair] = mag if w > 0 else -mag
    return weights


def _hermite_functions(kmax, u):
    """Normalized Hermite functions psi_0..psi_kmax at u, as a list.

    psi_k = H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)), by the recurrence
    psi_(k+1) = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_(k-1).  The
    Gaussian start underflows beyond |u| ~ 38, which is outside the
    classical region sqrt(2k+1) of every index below about 700.
    """
    table = [math.pi**-0.25 * np.exp(-(u**2) / 2.0)]
    for k in range(kmax):
        nxt = math.sqrt(2.0 / (k + 1)) * u * table[k]
        if k:
            nxt -= math.sqrt(k / (k + 1)) * table[k - 1]
        table.append(nxt)
    return table


def _sample_density(poly, realization, axes, drivers):
    """The reduced density of the retained particles, sampled on the grid.

    drivers[p][a] is the grid axis that drives coordinate a of retained
    particle p.  Returns n!/(n-r)! / length_scale^(r d), for r retained
    particles, times the sum over _reduced_density_weights of
    w * prod_p psi(p, bra_p) psi(p, ket_p), where psi(p, row) multiplies
    the normalized Hermite functions of the row's indices along the
    particle's driving axes.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial has no normalizable density")
    retained = len(drivers)
    scale = realization.length_scale
    try:
        volume = scale ** (retained * poly.d)
    except OverflowError:
        volume = math.inf
    if not 0 < volume < math.inf:
        raise ValueError(
            f"length scale {scale} out of range: length_scale^{retained * poly.d} "
            "is not a finite positive float"
        )
    reach = max(max(abs(axis.lo), abs(axis.hi)) for axis in axes) / scale
    if not math.isfinite(reach * reach):
        raise ValueError(
            f"length scale {scale} out of range: (max |grid coordinate| / "
            "length scale)^2 is not a finite float"
        )
    weights = _reduced_density_weights(poly, retained)
    kmax = max(map(max, poly.terms))
    tables = []  # one per grid axis, shaped to broadcast along that axis
    for g, axis in enumerate(axes):
        shape = [1] * len(axes)
        shape[g] = axis.count
        tables.append(_hermite_functions(kmax, (axis.points() / scale).reshape(shape)))
    cache = {}

    def orbital_product(p, row):
        vals = cache.get((p, row))
        if vals is None:
            vals = 1.0
            for g, k in zip(drivers[p], row):
                vals = vals * tables[g][k]
            cache[p, row] = vals
        return vals

    values = np.zeros([axis.count for axis in axes])
    for (bra, ket), w in weights.items():
        term = w
        for p in range(retained):
            term = term * orbital_product(p, bra[p]) * orbital_product(p, ket[p])
        values += term
    values *= math.perm(poly.n, retained) / volume
    return values


def one_particle_density(poly, realization, axes):
    """rho(x) = N * integral of |Psi|^2 over particles 2..N, normalized.

    The grid is over one particle's d coordinates, in the units of the
    length scale; the result integrates to N over the whole space.
    """
    if len(axes) != poly.d:
        raise ValueError(f"need {poly.d} grid axes, got {len(axes)}")
    values = _sample_density(poly, realization, axes, [range(poly.d)])
    return _finalize_density(axes, values, normalization=float(poly.n))


def two_particle_density_cut(poly, realization, axes):
    """Two-particle density along the diagonal cut x_1 = (x,..,x), x_2 = (y,..,y).

    The first grid axis drives all coordinates of the first retained
    particle, the second those of the second; remaining particles are traced
    out.  The declared normalization is the Riemann sum over the cut (the
    full 2d-dimensional density would integrate to N(N-1)).
    """
    if poly.n < 2:
        raise ValueError("two-particle density needs at least two particles")
    if len(axes) != 2:
        raise ValueError("the diagonal cut uses exactly two grid axes")
    values = _sample_density(poly, realization, axes, [(0,) * poly.d, (1,) * poly.d])
    grid = _finalize_density(axes, values, normalization=0.0)
    grid.normalization = grid.riemann_integral()
    return grid


def _finalize_density(axes, values, normalization):
    if not np.isfinite(values).all():
        raise InternalConsistencyError(
            f"density has {np.count_nonzero(~np.isfinite(values))} non-finite "
            f"values of {values.size}"
        )
    floor = values.min()
    if floor < -1e-10 * max(values.max(), 1.0):
        raise InternalConsistencyError(
            f"density came out negative ({floor}); the exact spectator "
            "contraction is inconsistent"
        )
    return DensityGrid(
        axes=list(axes), values=np.maximum(values, 0.0), normalization=normalization
    )
