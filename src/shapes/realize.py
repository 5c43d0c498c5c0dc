"""The oscillator realization and densities on grids.

The abstract formal power t^k maps to phi_k(u) = H_k(u) exp(-u^2/2) of the
scaled coordinate u = x / length_scale.  The mapping is applied monomial by
monomial, never to factored expressions (which ExactPolynomial enforces by
always being expanded).

One evaluator serves both evaluation and densities: the normalized Hermite
functions psi_k = phi_k / sqrt(2^k k! sqrt(pi)), by their three-term
recurrence, bounded by pi^(-1/4).  realize_polynomial scales them back to
phi_k.  A density traces out the spectator particles of a state vector by
the Slater-Condon rules (Lowdin, Phys. Rev. 97, 1474, 1955): Hermite
orthogonality pairs two states' retained rows only through a rest both
hold, and no state is expanded into its monomials.  The rests come from
the level's code array by coulomb.removals, the split Coulomb reads, and
nothing is kept on the level.
Each pair's weight is exact in Python integers until one correctly rounded
division, so neither the samples nor the weights overflow or underflow at
high orbital index.  One sampler serves both densities: per grid axis, one
(pairs x points) factor multiplies the psi_k of the bra and ket indices
that axis drives, one matrix product per chunk of pairs sums them, and a
sample within the rounding bound of its sum is 0.  The one-particle
density and the diagonal two-particle cut differ only in which grid axis
drives which coordinate.  A density grid's CSV is one template, with a
slot per sample, filled by one %.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, permutations, product

import numpy as np

from .coulomb import hermite_norm_rational, multiset_weight, removals
from .counting import FERMION
from .errors import InternalConsistencyError
from .polycore import canonical_rows, chunk_rows, multiplicity_factorials


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
        """One row per sample, the first axis slowest, in csv's default dialect.

        The header goes through csv.writer, which quotes a name that needs
        it; the numbers never do, so the rows are one template, each axis
        point formatted once and a %.12e slot per sample, filled by one %.
        """
        *leading, last = [[f"{p:.12e}," for p in ax.points().tolist()] for ax in self.axes]
        last = [f"{p}%.12e\r\n" for p in last]
        template = "".join(prefix + prefix.join(last) for prefix in map("".join, product(*leading)))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow([ax.name for ax in self.axes] + ["value"])
            fh.write(template % tuple(self.values.ravel().tolist()))

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


def _reduced_density_weights(state, retained):
    """Contract |Psi|^2 of a StateVector over the spectators retained..n-1.

    Returns {(bra rows, ket rows) of particles 0..retained-1: weight}, the
    spectator-integrated coefficient over <Psi|Psi>, as the weight of the
    rows' normalized Hermite functions.  The states' code rows are split
    into removed rows and rests by removals, as Coulomb splits them.  Each
    ordered tuple A of a state's rows, counted once, is filed under the
    rest Q of its orbitals with e_A = c mult! eps (eps the phase of moving
    A to the front, mult! the state's multiplicity factorials); two tuples
    of one rest add (n - retained)! / mult(Q)! H(Q) e_A e_B, one term per
    ordering of Q, with H = prod 2^e e! (the sqrt(pi) cancel), and
    <Psi|Psi> = n! sum c^2 mult! H.  Each weight,
    sqrt(w^2 H(bra) H(ket) / <Psi|Psi>^2), is rounded once, by a true
    division of Python ints.  A pair is keyed once, bra rows <= ket rows,
    with an off-diagonal weight doubled (exactly) for its mirror.
    """
    basis = state.basis
    fermion = basis.statistics is FERMION
    decode = basis.codes.decode
    picked, kept, phases = removals(basis.n, retained, fermion)
    indices = sorted(state.terms)
    rows = basis.code_array[indices]
    split = zip(indices, rows.tolist(), rows[:, kept].tolist(), rows[:, picked].tolist())
    phases = phases.tolist()
    norm = 0
    buckets = {}
    for idx, row, kept_rows, removed in split:
        orbitals = decode(row)
        c = state.terms[idx]
        norm += c * c * multiset_weight(orbitals)
        c *= multiplicity_factorials(orbitals)
        for rest, codes, phase in zip(kept_rows, removed, phases):
            bucket = buckets.setdefault(tuple(rest), {})
            for order in permutations(codes):
                bucket[order] = c * phase * canonical_rows(order, fermion)[1]
    spare = math.factorial(basis.n - retained)
    sums = {}
    for rest, bucket in buckets.items():
        rest = decode(rest)
        spect = spare // multiplicity_factorials(rest) * hermite_norm_rational(sum(rest, ()))
        entries = sorted((decode(order), e) for order, e in bucket.items())
        for (rows_a, ea), (rows_b, eb) in combinations_with_replacement(entries, 2):
            sums[rows_a, rows_b] = sums.get((rows_a, rows_b), 0) + spect * ea * eb
    row_norms = {rows: hermite_norm_rational(sum(rows, ())) for rows in {*chain(*sums)}}
    den = (math.factorial(basis.n) * norm) ** 2
    weights = {}
    for (rows_a, rows_b), w in sums.items():
        if w:
            mag = math.sqrt(w * w * row_norms[rows_a] * row_norms[rows_b] / den)
            mag *= 1 if rows_a == rows_b else 2
            weights[rows_a, rows_b] = mag if w > 0 else -mag
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


def _pair_sum(weights, factors):
    """The sum over pairs i of weights[i] prod_g factors[g][i, x_g] on the
    grid, stacked on the same sum of absolute values; the factors are
    overwritten.  Per chunk of pairs, the product of every factor but the
    last, a (pairs x points) matrix, is transposed and multiplied by the
    last factor times the weights.  A chunk holds at most CHUNK_BYTES / 8
    (pair, sample) terms: BLAS runs products this small on one thread, and
    waking its threads for them costs more time and memory than it saves."""
    shape = [factor.shape[1] for factor in factors]
    sums = np.zeros((2, math.prod(shape[:-1]), shape[-1]))
    step = chunk_rows(8 * sums[0].size)
    for lo in range(0, len(weights), step):
        *lead, end = [factor[lo : lo + step] for factor in factors]
        end *= weights[lo : lo + step, None]
        block = lead[0] if lead else np.ones((len(end), 1))
        for part in lead[1:]:
            block = (block[:, :, None] * part[:, None, :]).reshape(len(end), -1)
        sums[0] += block.T @ end
        sums[1] += np.abs(block, out=block).T @ np.abs(end, out=end)
    return sums.reshape([2] + shape)


def _sample_density(state, realization, axes, drivers):
    """The reduced density of the retained particles, sampled on the grid.

    drivers[p][a] is the grid axis that drives coordinate a of retained
    particle p.  Returns n!/(n-r)! / length_scale^(r d), for r retained
    particles, times the sum over _reduced_density_weights of
    w * prod_p psi(p, bra_p) psi(p, ket_p), where psi(p, row) multiplies
    the normalized Hermite functions of the row's indices along the
    particle's driving axes.  The product splits by grid axis: axis g's
    factor holds, per pair, the product of psi(bra index) psi(ket index)
    over the coordinates g drives, and _pair_sum sums w times the factors'
    outer product over the pairs.  A sample within (pairs + factors per
    term) * eps * (its sum of absolute terms) of 0 is rounding noise, and 0.
    """
    if not any(state.terms.values()):
        raise ValueError("zero state has no normalizable density")
    retained = len(drivers)
    d = state.basis.d
    scale = realization.length_scale
    try:
        volume = scale ** (retained * d)
    except OverflowError:
        volume = math.inf
    if not 0 < volume < math.inf:
        raise ValueError(
            f"length scale {scale} out of range: length_scale^{retained * d} "
            "is not a finite positive float"
        )
    reach = max(max(abs(axis.lo), abs(axis.hi)) for axis in axes) / scale
    if not math.isfinite(reach * reach):
        raise ValueError(
            f"length scale {scale} out of range: (max |grid coordinate| / "
            "length scale)^2 is not a finite float"
        )
    weights = _reduced_density_weights(state, retained)
    # rows[i, side, p, a]: the index along coordinate a of retained particle
    # p in the bra (side 0) or ket (side 1) of weight pair i.
    flat = chain.from_iterable(chain.from_iterable(chain.from_iterable(weights)))
    rows = np.fromiter(flat, np.intp, len(weights) * 2 * retained * d).reshape(-1, 2, retained, d)
    factors = []
    for g, axis in enumerate(axes):
        table = np.array(_hermite_functions(int(rows.max()), axis.points() / scale))
        columns = [
            rows[:, side, p, a]
            for p, driving in enumerate(drivers)
            for a, h in enumerate(driving)
            if h == g
            for side in (0, 1)
        ]
        factor = table[columns[0]]
        for column in columns[1:]:
            factor *= table[column]
        factors.append(factor)
    rounding = (len(weights) + 1 + 2 * retained * d) * np.finfo(float).eps
    values, magnitude = _pair_sum(np.fromiter(weights.values(), float, len(weights)), factors)
    values[np.abs(values) <= rounding * magnitude] = 0.0
    values *= math.perm(state.basis.n, retained) / volume
    return values


def one_particle_density(state, realization, axes):
    """rho(x) = N * integral of |Psi|^2 over particles 2..N, normalized.

    Psi is a StateVector.  The grid is over one particle's d coordinates,
    in the units of the length scale; the result integrates to N over the
    whole space.
    """
    n, d = state.basis.n, state.basis.d
    if len(axes) != d:
        raise ValueError(f"need {d} grid axes, got {len(axes)}")
    values = _sample_density(state, realization, axes, [range(d)])
    return _finalize_density(axes, values, normalization=float(n))


def two_particle_density_cut(state, realization, axes):
    """Two-particle density along the diagonal cut x_1 = (x,..,x), x_2 = (y,..,y).

    state is a StateVector.  The first grid axis drives all coordinates of
    the first retained particle, the second those of the second; remaining
    particles are traced out.  The declared normalization is the Riemann sum
    over the cut (the full 2d-dimensional density would integrate to N(N-1)).
    """
    n, d = state.basis.n, state.basis.d
    if n < 2:
        raise ValueError("two-particle density needs at least two particles")
    if len(axes) != 2:
        raise ValueError("the diagonal cut uses exactly two grid axes")
    values = _sample_density(state, realization, axes, [(0,) * d, (1,) * d])
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
