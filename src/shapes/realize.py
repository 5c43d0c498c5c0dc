"""Concrete single-particle realizations and densities on grids.

The abstract formal power t^k maps to H_k(x) exp(-x^2/2) in the oscillator
realization.  The mapping is applied monomial by monomial, never to
factored expressions (which ExactPolynomial enforces by always being
expanded).

Densities are computed in the oscillator realization: the traced-out
particles contract by exact Hermite orthogonality,
<phi_a|phi_b> = delta_ab 2^a a! sqrt(pi), so only monomials with equal
spectator rows pair up, with exact rational weights.  The retained
particles are sampled as normalized Hermite functions (three-term
recurrence, bounded by pi^(-1/4)) with the norms folded into the exact
weights, so neither the samples nor the weights overflow or underflow at
high orbital index.
Coordinates are in units of the realization's length scale.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.hermite import hermval

from .coulomb import hermite_norm_rational, spectator_buckets, state_norm_rational
from .errors import InternalConsistencyError


class RealizationKind(Enum):
    HERMITE_OSCILLATOR = "hermite"


@dataclass(frozen=True)
class Realization:
    """A concrete single-particle basis behind the formal powers."""

    kind: RealizationKind
    length_scale: float = 1.0

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValueError("length scale must be positive")

    def orbital_values(self, k, u):
        """phi_k on already-scaled coordinates u = x / length_scale."""
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        return hermval(u, coeffs) * np.exp(-(u**2) / 2.0)


def hermite_oscillator(length_scale=1.0):
    return Realization(RealizationKind.HERMITE_OSCILLATOR, length_scale)


@dataclass(frozen=True)
class Axis:
    """One grid axis: name, inclusive range, sample count."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2 or self.hi <= self.lo:
            raise ValueError(f"bad axis {self.name}: need hi > lo and count >= 2")

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

    def evaluate(points):
        x = np.asarray(points, dtype=float)
        if x.shape[-2:] != (n, d):
            raise ValueError(f"points must have shape (..., {n}, {d})")
        u = x / realization.length_scale
        cache = {}
        total = np.zeros(x.shape[:-2])
        for mono, coeff in terms:
            factor = np.full(x.shape[:-2], coeff)
            for i in range(n):
                for ax in range(d):
                    k = mono[i * d + ax]
                    key = (i, ax, k)
                    vals = cache.get(key)
                    if vals is None:
                        vals = realization.orbital_values(k, u[..., i, ax])
                        cache[key] = vals
                    factor = factor * vals
            total = total + factor
        return total

    return evaluate


def _reduced_density_weights(poly, retained):
    """Contract |Psi|^2 over the spectator particles retained..n-1.

    Returns {(bra rows, ket rows) of particles 0..retained-1: weight}, the
    spectator-integrated coefficient over the full overlap <Psi|Psi>, as
    the weight of the rows' normalized Hermite functions.  Hermite
    orthogonality pairs monomials only within a spectator bucket.  The
    weight's square, which takes the rows' norms 2^a a! (their sqrt(pi)
    cancel against the overlap's), is exact and is rounded to a float once,
    before its square root.
    """
    terms = list(poly.terms.items())
    norm = state_norm_rational(terms)
    sums = {}
    for key, bucket in spectator_buckets(terms, retained, poly.d).items():
        spect = hermite_norm_rational(key)
        for rows_a, ca in bucket:
            for rows_b, cb in bucket:
                pair = (rows_a, rows_b)
                sums[pair] = sums.get(pair, 0) + spect * ca * cb
    norm2 = norm * norm
    weights = {}
    for pair, w in sums.items():
        if w:
            square = w * w / norm2
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


def one_particle_density(poly, realization, axes):
    """rho(x) = N * integral of |Psi|^2 over particles 2..N, normalized.

    The grid is over one particle's d coordinates (in units of the length
    scale); the result integrates to N over the whole space.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial has no normalizable density")
    if len(axes) != poly.d:
        raise ValueError(f"need {poly.d} grid axes, got {len(axes)}")
    weights = _reduced_density_weights(poly, retained=1)
    scale = realization.length_scale
    kmax = max(map(max, poly.terms))
    tables = []  # one per axis, shaped to broadcast along that grid axis
    for ax, axis in enumerate(axes):
        shape = [1] * poly.d
        shape[ax] = axis.count
        tables.append(_hermite_functions(kmax, (axis.points() / scale).reshape(shape)))
    cache = {}

    def orbital_product(indices):
        vals = cache.get(indices)
        if vals is None:
            vals = 1.0
            for table, k in zip(tables, indices):
                vals = vals * table[k]
            cache[indices] = vals
        return vals

    values = np.zeros([axis.count for axis in axes])
    for ((a,), (b,)), w in weights.items():
        values += w * orbital_product(a) * orbital_product(b)
    values *= poly.n / scale**poly.d
    return _finalize_density(axes, values, normalization=float(poly.n))


def two_particle_density_cut(poly, realization, axes):
    """Two-particle density along the diagonal cut x_1 = (x,..,x), x_2 = (y,..,y).

    The first grid axis drives all coordinates of the first retained
    particle, the second those of the second; remaining particles are traced
    out.  The declared normalization is the Riemann sum over the cut (the
    full 2d-dimensional density would integrate to N(N-1)).
    """
    if poly.is_zero:
        raise ValueError("zero polynomial has no normalizable density")
    if poly.n < 2:
        raise ValueError("two-particle density needs at least two particles")
    if len(axes) != 2:
        raise ValueError("the diagonal cut uses exactly two grid axes")
    weights = _reduced_density_weights(poly, retained=2)
    scale = realization.length_scale
    kmax = max(map(max, poly.terms))
    # Particle 1 varies along the first grid axis, particle 2 along the second.
    tables = (
        _hermite_functions(kmax, (axes[0].points() / scale)[:, None]),
        _hermite_functions(kmax, (axes[1].points() / scale)[None, :]),
    )
    cache = {}

    def orbital_product(indices, particle):
        key = (indices, particle)
        vals = cache.get(key)
        if vals is None:
            vals = 1.0
            for k in indices:
                vals = vals * tables[particle][k]
            cache[key] = vals
        return vals

    values = np.zeros((axes[0].count, axes[1].count))
    for ((a1, a2), (b1, b2)), w in weights.items():
        values += (
            w
            * orbital_product(a1, 0)
            * orbital_product(b1, 0)
            * orbital_product(a2, 1)
            * orbital_product(b2, 1)
        )
    values *= poly.n * (poly.n - 1) / scale ** (2 * poly.d)
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
