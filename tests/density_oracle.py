"""Reference spectator weights, density sampler and CSV writer.

These are the straightforward forms the vectorized code in shapes.realize
must reproduce: the weights in exact Fraction arithmetic from the state's
expanded monomials, rounded once, the samples summed pair by pair with one
grid array per weight pair, and the CSV written row by row through
csv.writer.  The weights and the CSV must match to the byte; the samples
differ only in the order of their floating-point sums.  state_vector turns
a polynomial into the state vector the densities take.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from shapes.counting import FERMION
from shapes.deflation import LevelBasis, StateVector, deflate_sparse
from shapes.realize import _hermite_functions


def state_vector(poly, statistics=FERMION):
    """poly as a StateVector over the level basis of its grade."""
    basis = LevelBasis(poly.n, poly.d, poly.grade(), statistics)
    return StateVector(basis, deflate_sparse(poly, basis))


def hermite_norm(indices):
    """Product over the indices of 2^e e!, the squared norm without sqrt(pi)."""
    return math.prod(2**e * math.factorial(e) for e in indices)


def oracle_weights(poly, retained):
    """{(bra rows, ket rows): weight} of the retained particles' psi_k.

    Each unordered pair once, bra rows <= ket rows, with an off-diagonal
    weight doubled for its mirror.
    """
    d = poly.d
    norm = 0
    buckets = {}
    for mono, coeff in poly.terms.items():
        norm += coeff * coeff * hermite_norm(mono)
        rows = tuple(mono[p * d : (p + 1) * d] for p in range(retained))
        buckets.setdefault(mono[retained * d :], []).append((rows, coeff))
    sums = {}
    for key, bucket in buckets.items():
        spect = hermite_norm(key)
        for rows_a, ca in bucket:
            for rows_b, cb in bucket:
                if rows_a <= rows_b:
                    pair = (rows_a, rows_b)
                    sums[pair] = sums.get(pair, 0) + spect * ca * cb
    weights = {}
    for pair, w in sums.items():
        if w:
            square = Fraction(w * w, norm * norm)
            for row in pair[0] + pair[1]:
                square *= hermite_norm(row)
            mag = math.sqrt(square) * (1 if pair[0] == pair[1] else 2)
            weights[pair] = mag if w > 0 else -mag
    return weights


def oracle_samples(poly, realization, axes, drivers):
    """The unfinalized density samples, one grid-sized term per weight pair."""
    retained = len(drivers)
    scale = realization.length_scale
    kmax = max(map(max, poly.terms))
    tables = []
    for g, axis in enumerate(axes):
        shape = [1] * len(axes)
        shape[g] = axis.count
        tables.append(_hermite_functions(kmax, (axis.points() / scale).reshape(shape)))

    def orbital_product(p, row):
        vals = 1.0
        for g, k in zip(drivers[p], row):
            vals = vals * tables[g][k]
        return vals

    values = np.zeros([axis.count for axis in axes])
    for (bra, ket), w in oracle_weights(poly, retained).items():
        term = w
        for p in range(retained):
            term = term * orbital_product(p, bra[p]) * orbital_product(p, ket[p])
        values += term
    values *= math.perm(poly.n, retained) / scale ** (retained * poly.d)
    return values


def oracle_csv(grid, path):
    """A DensityGrid's CSV, written one csv.writer row per sample."""
    grids = np.meshgrid(*[ax.points() for ax in grid.axes], indexing="ij")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([ax.name for ax in grid.axes] + ["value"])
        flat = [g.ravel() for g in grids] + [grid.values.ravel()]
        for row in zip(*flat):
            writer.writerow([f"{v:.12e}" for v in row])
