"""Closed-form Coulomb matrix elements between unnormalized Hermite functions.

The two-body element between products of phi_n(x) = H_n(x) exp(-x^2/2)
reduces, via the Gaussian integral representation of 1/r, to a finite sum of
Hermite linearization coefficients times a Beta-function integral.  All
internal sums run in integers over one denominator D per (dimension, level),
with the symbolic prefactor sqrt(2) * pi^(d - 1/2 + p) factored out (p = 1
in even dimensions, where the Beta integral carries one power of pi, else
0); one exact division and one collapse to float happen at the end.

Unnormalized Hermite functions have <phi_n|phi_m> = delta_nm 2^n n! sqrt(pi);
many-body expectations divide by the full state norms, so the outputs are
convention-free.  They contract in the state basis: by the Slater-Condon
rules, with Lowdin's occupation-number factors for permanents (Phys. Rev.
97, 1474, 1955), two Slater/permanent states couple only through the orbital
multisets of size n-2 they share, their rests, and no state is expanded into
its n! monomials.  A table is one contraction (_contract): each vector's
states are split, from the level's code array, into entries (rest, removed
pair, phase x coefficient) by removals, the one split of a state into
removed rows and rest that the densities read too, and two entries on one
rest add their amplitudes' product times the rest's weight and the pair
value D ([x y|z w] +- [x y|w z]).  The pair values, rest weights and norms
a table needs are computed once per table, the pair values in one
integer-array pass (_scaled_elements), in int64 when a float64 bound on
every partial sum is below 2^62, else on Python ints; the level keeps none
of them.  The table's sums are exact in int64 limbs whose widths keep every
sum below 2^62, combined in Python ints; each entry is divided and rounded
once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, combinations, product

import numpy as np

from .counting import FERMION
from .errors import InternalConsistencyError
from .polycore import as_exact, chunk_rows, chunks, multiplicity_factorials


def hermite_linearization(n, m):
    """Coefficients a_k with H_n * H_m = sum_k a_k H_k, k = 0 .. n+m.

    a_k = 2^((n+m-k)/2) n! m! / [((m+n-k)/2)! ((k+n-m)/2)! ((k+m-n)/2)!]
    for n+m+k even with all three arguments non-negative, zero otherwise.
    The values are integers.
    """
    if n < 0 or m < 0:
        raise ValueError("Hermite indices must be non-negative")
    out = [0] * (n + m + 1)
    for k in range(abs(n - m), n + m + 1):
        if (n + m + k) % 2:
            continue
        half = (n + m - k) // 2
        num = 2**half * math.factorial(n) * math.factorial(m)
        den = (
            math.factorial(half)
            * math.factorial((k + n - m) // 2)
            * math.factorial((k + m - n) // 2)
        )
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("Hermite linearization coefficient not integral")
        out[k] = q
    return out


def _gamma_half(two_a):
    """Gamma(two_a / 2) as (rational, power of sqrt(pi)) for two_a >= 1."""
    if two_a < 1:
        raise ValueError("gamma argument must be at least 1/2")
    if two_a % 2 == 0:
        return Fraction(math.factorial(two_a // 2 - 1)), 0
    # Gamma(j + 1/2) = (2j)! / (4^j j!) * sqrt(pi)
    j = (two_a - 1) // 2
    return Fraction(math.factorial(2 * j), 4**j * math.factorial(j)), 1


@lru_cache(maxsize=None)
def beta_integral_exact(d, l):
    """I_d(l) = integral_0^1 (1-w^2)^((d-3)/2) w^l dw, exactly.

    Returns (rational, pi_power): the value is rational * pi^pi_power, with
    pi_power = 1 in even dimensions and 0 in odd ones.  Requires d >= 2 and
    even l >= 0.
    """
    if d < 2:
        raise ValueError("the Beta integral needs d >= 2")
    if l < 0 or l % 2:
        raise ValueError("l must be even and non-negative")
    # (1/2) B((l+1)/2, (d-1)/2)
    num1, p1 = _gamma_half(l + 1)
    num2, p2 = _gamma_half(d - 1)
    den, p3 = _gamma_half(l + d)
    half_pi = p1 + p2 - p3
    if half_pi % 2:
        raise ArithmeticError("unexpected odd power of sqrt(pi)")
    return num1 * num2 / (2 * den), half_pi // 2


@lru_cache(maxsize=None)
def _level_weights(d, grade):
    """(D, W) with W[l // 2] = D * 2^(-l/2) * I_d(l) an integer for every
    even l <= 2 * grade, D the least common denominator.

    Two orbital pairs of one level have degree sums of at most the grade
    each, so D * R = sum_l c_l W[l // 2] is an integer for every two-body
    element between states of that level.
    """
    values = []
    pi_pow = None
    for l in range(0, 2 * grade + 1, 2):
        rat, p = beta_integral_exact(d, l)
        if pi_pow is None:
            pi_pow = p
        elif p != pi_pow:
            raise ArithmeticError("inconsistent pi powers across Beta integrals")
        values.append(rat / 2 ** (l // 2))
    denominator = math.lcm(*(v.denominator for v in values))
    return denominator, tuple(v.numerator * (denominator // v.denominator) for v in values)


# The pair values run in int64 when every partial sum is below this.
_INT64_BOUND = 2**62


def _scaled_elements(quads, grade):
    """D times the rational part of the two-body elements of k index
    quadruples (bra1, bra2, ket1, ket2), a (4 x k x d) int array, over the
    weights W of a level of that grade (_level_weights): int64, or Python ints in an object array.

    An axis's factor at s = 2h, H_s(0) sum_j (-1)^j a_j(n, m) a_(s-j)(n', m')
    for its indices (n, n', m, m'), is built once per distinct quadruple
    from one array of linearization coefficients.  The last axis is
    contracted against W by a matrix product and dotted with the others'
    convolution.  A term of degree above 2 grade is refused.  The same
    pass on absolute values in float64 bounds every partial sum: below
    _INT64_BOUND it runs in int64, else on Python ints.
    """
    d = quads.shape[2]
    _, weights = _level_weights(d, grade)
    axes = quads.sum(axis=0)
    degrees = axes.sum(axis=1)
    # A quadruple whose axes are all even has a nonzero term of its degree.
    beyond = (axes % 2 == 0).all(axis=1) & (degrees > 2 * grade)
    if beyond.any():
        raise InternalConsistencyError(
            f"two-body term of degree {degrees[beyond][0]} exceeds the level bound {2 * grade}"
        )
    shape = (int(quads.max(initial=0)) + 1,) * 4
    distinct, which = np.unique(np.ravel_multi_index(quads, shape).ravel(), return_inverse=True)
    n, n2, m, m2 = np.unravel_index(distinct, shape)
    which = which.reshape(axes.shape)
    spread = np.add.outer(np.arange(grade + 1), np.arange(grade + 1))

    def elements(table, signs, h_zero, weights):
        """The elements, and the arrays of every stage."""
        bra, ket = table[n, m] * signs, table[n2, m2]
        factors = np.zeros((len(distinct), grade + 1), dtype=table.dtype)
        for j in range(min(bra.shape[1], 2 * grade + 1)):
            lo, hi = (j + 1) // 2, min(grade, (j + ket.shape[1] - 1) // 2) + 1
            factors[:, lo:hi] += bra[:, j, None] * ket[:, 2 * lo - j : 2 * hi - j - 1 : 2]
        factors *= h_zero
        last = factors @ weights[spread]
        inner = factors[which[:, 0]]
        for axis in range(1, d - 1):
            outer, inner = inner, np.zeros_like(inner)
            for h in range(grade + 1):
                inner[:, h:] += outer[:, h, None] * factors[which[:, axis], : grade + 1 - h]
        values = (inner * last[which[:, -1]]).sum(axis=1)
        return values, (values, factors, last, inner)

    table = np.zeros((shape[0], shape[0], 2 * shape[0] - 1), dtype=object)
    for i, j in product(range(shape[0]), repeat=2):
        table[i, j, : i + j + 1] = hermite_linearization(i, j)
    signs = (-1) ** np.arange(table.shape[2])
    # H_2h(0) = (-1)^h (2h)! / h!
    h_zero = [(-1) ** h * math.factorial(2 * h) // math.factorial(h) for h in range(grade + 1)]
    h_zero = np.array(h_zero, dtype=object)
    weights = np.array(weights + (0,) * grade, dtype=object)
    inputs = table, h_zero, weights
    exact = max(int(np.abs(a).max()) for a in inputs) < _INT64_BOUND
    if exact:
        floats = [np.abs(a).astype(float) for a in inputs]
        stages = elements(floats[0], 1, *floats[1:])[1]
        exact = max(a.max(initial=0) for a in stages) < _INT64_BOUND
    if exact:
        inputs = [a.astype(np.int64) for a in inputs]
    return elements(inputs[0], signs, *inputs[1:])[0]


def two_body_element(bra1, bra2, ket1, ket2):
    """Coulomb matrix element [n n' | 1/|R-R'| | m m'] between Hermite products.

    Indices are d-tuples of per-axis Hermite quantum numbers for the two
    interacting particles (bra pair, then ket pair), giving one float, or
    (k x d) integer arrays of k such quadruples, giving k floats.  All are
    evaluated in one _scaled_elements pass, over the weights of half the
    largest degree sum, and each is its exact rational rounded once.
    Vanishes exactly whenever any axis has odd total parity.
    """
    arrays = [np.asarray(v, dtype=np.int64) for v in (bra1, bra2, ket1, ket2)]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays) or len(shape) not in (1, 2):
        raise ValueError("indices must be four d-tuples or four (k x d) arrays of one shape")
    quads = np.stack(arrays).reshape(4, -1, shape[-1])
    if (quads < 0).any():
        raise ValueError("Hermite indices must be non-negative")
    # Half the largest degree sum is a grade whose weights cover every
    # term; the prefactor is pi^d sqrt(2/pi) pi^p.
    d, grade = shape[-1], int(quads.sum(axis=(0, 2)).max(initial=0)) // 2
    denominator, _ = _level_weights(d, grade)
    prefactor = math.sqrt(2.0) * math.pi ** (d - 0.5 + beta_integral_exact(d, 0)[1])
    values = [int(s) / denominator * prefactor for s in _scaled_elements(quads, grade)]
    return values[0] if len(shape) == 1 else np.array(values)


def hermite_norm_rational(indices):
    """Product over the indices of 2^e e!, an int.

    The norm of a product of unnormalized Hermite functions is this times
    sqrt(pi) per index, since <phi_a|phi_b> = delta_ab 2^a a! sqrt(pi).
    """
    rat = 1
    for e in indices:
        rat *= 2**e * math.factorial(e)
    return rat


# Bytes a table's contraction holds per entry (one removed pair of one
# state of one vector) and per pair of entries, over all its arrays.
_ENTRY_BYTES = 96
_PAIR_BYTES = 96
# The fewest bits a limb of the block values keeps when the amplitudes
# are cut into limbs as well (_contract).
_MIN_VALUE_BITS = 16


@cache
def removals(n, r, fermion):
    """(picked, kept, phases) of the C(n, r) position sets p_1 < .. < p_r
    of a row of n codes, in combinations order: the set's r columns, the
    other n - r columns in order, and the phase of moving the set's rows to
    the front in order, (-1)^(p_1 + .. + p_r - C(r, 2)) for a determinant
    and 1 for a permanent.  The one split of a state into removed rows and
    rest, for the densities (r = 1, 2) and Coulomb (r = 2)."""
    sets = [*combinations(range(n), r)]
    kept = np.array([[k for k in range(n) if k not in chosen] for chosen in sets], dtype=np.intp)
    phases = [(-1) ** (sum(chosen) - math.comb(r, 2)) if fermion else 1 for chosen in sets]
    return np.array(sets, dtype=np.intp), kept.reshape(len(sets), n - r), np.array(phases)


def _grid(rows, columns):
    """(k, i, j) of every (i, j) in range(rows[k]) x range(columns[k]),
    k after k, row-major."""
    counts = rows * columns
    k = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    return (k, *np.divmod(within, columns[k]))


def _distinct(values):
    """The distinct values of an int array, ascending.  np.unique asked for
    no indices or counts checks for a masked array, which imports numpy.ma
    on first use: about 10 ms of a fresh process's first table."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def _limbs(values, width, count):
    """A (count x len(values)) int64 array L with values = sum_k L[k]
    2^(k width), each entry below 2^width in magnitude: a Python int
    array's magnitudes cut into width-bit pieces, each carrying the value's
    sign, a chunk of values at a time."""
    limbs, mask = np.empty((count, len(values)), dtype=np.int64), (1 << width) - 1
    step = chunk_rows(64 * (count + 1))
    for lo in range(0, len(values), step):
        part = values[lo : lo + step]
        magnitudes, signs = np.abs(part), np.where(part < 0, -1, 1)
        for k in range(count):
            limbs[k, lo : lo + step] = ((magnitudes >> (k * width)) & mask) * signs
    return limbs


def _pair_values(basis, lo, hi):
    """P(x y, z w) = D ([x y|z w] +- [x y|w z]), - for fermions, as Python
    ints, of the pairs of pairs with codes lo = x limit + y and hi = z
    limit + w, limit the level's code count: one _scaled_elements pass."""
    limit = basis.codes.grow(basis.grade)
    orbitals = basis.codes.axis_degrees(basis.grade)
    x, y = orbitals[np.array(np.divmod(lo, limit))]
    z, w = orbitals[np.array(np.divmod(hi, limit))]
    quads = np.reshape(((x, x), (y, y), (z, w), (w, z)), (4, -1, basis.d))
    values = _scaled_elements(quads, basis.grade)
    exchange = -1 if basis.statistics is FERMION else 1
    return (values[: len(x)] + exchange * values[len(x) :]).astype(object)


def _blocks(basis, states, classes):
    """The blocks of per-rest pair amplitudes of some distinct states of a
    level.

    A state's entries are its C(n, 2) position pairs (removals), each
    removing a pair and leaving a rest.  A block is a rest and a class
    (classes[i] of the i-th state); its slots are the distinct pairs its
    entries remove, and its values are W_R P(e, f) for every ordered pair
    (e, f) of its slots, as Python ints.  Returns (block, place, sizes,
    offsets, values): per entry (states x C(n, 2), row-major) its block and
    its slot's place there, and per block its slot count m and the offset
    of its m x m values, row-major in values.  P is computed once per
    unordered pair of pairs and W_R once per rest.
    """
    n, limit = basis.n, basis.codes.grow(basis.grade)
    picked, kept, _ = removals(n, 2, basis.statistics is FERMION)
    rows = basis.code_array[states].astype(np.int64)
    rest_rows = rows[:, kept].reshape(len(states) * len(picked), n - 2)
    _, first, rest = np.unique(basis.row_keys(rest_rows), return_index=True, return_inverse=True)
    span = int(classes.max(initial=0)) + 1
    block_keys, block = np.unique(
        rest * span + np.repeat(classes, len(picked)), return_inverse=True
    )
    pair = (rows[:, picked[:, 0]] * limit + rows[:, picked[:, 1]]).ravel()
    # The slots: the distinct (block, pair) of the entries, ascending.
    order = np.lexsort((pair, block))
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.diff(block[order]) | np.diff(pair[order])
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.cumsum(new) - 1
    slot_block, slot_pair = block[order][new], pair[order][new]
    starts = np.searchsorted(slot_block, np.arange(len(block_keys)))
    sizes = np.diff(starts, append=len(slot_pair))
    owner, e, f = _grid(sizes, sizes)
    pairs, dense = np.unique(slot_pair, return_inverse=True)
    e, f = dense[starts[owner] + e], dense[starts[owner] + f]
    quads, which = np.unique(
        np.minimum(e, f) * len(pairs) + np.maximum(e, f), return_inverse=True
    )
    del e, f
    values = _pair_values(basis, pairs[quads // len(pairs)], pairs[quads % len(pairs)])
    decoded = map(basis.codes.decode, rest_rows[first].tolist())
    weights = np.array([*map(multiset_weight, decoded)], dtype=object)
    values = weights[block_keys // span][owner] * values[which.ravel()]
    return block, slot - starts[block], sizes, np.cumsum(sizes**2) - sizes**2, values


def _contract(basis, vectors, cross):
    """(numerators, norms) of integer vectors {state: coeff} over a level:
    numerators[i, j] = D <v_i|V|v_j> for the cells i = j, and i < j if
    cross (a cell whose vectors share no rest is left out), and
    norms[i] = <v_i|v_i>, exact ints.

    By the Slater-Condon rules, with Lowdin's occupation-number factors for
    permanents, two states of a level couple only through the orbital
    multisets R of size n-2 that both contain (their rests), and

        D <S_a|V|S_b> = n! sum_R W_R sum eps_a eps_b P(x y, z w),

    the inner sum over the removed pairs (x, y) of a and (z, w) of b that
    leave R (removals), eps the phase of moving the pair to the front (1
    for permanents), W_R = mult(R)! N_R the product of R's multiplicity
    factorials and its Hermite norm, and P(x y, z w) = D ([x y|z w] +-
    [x y|w z]) with - for fermions (_pair_values), in units of sqrt(2)
    pi^(d - 1/2 + p) sqrt(pi)^((n-2) d); D is the level's denominator
    (_level_weights).  <S_a|S_a> = n! mult(a)! N_a in units of
    sqrt(pi)^(n d).

    Each vector's entries are its states' entries (_blocks), with the
    amplitude s = phase x coefficient, grouped by (vector, block).  A cell
    (i, j) adds s_e s_f W_R P(e, f) over every entry e of a group of i and
    f of j's group in the same block.  The blocks are per rest and sector
    when no cross cell is asked and every vector lies in one sector, so no
    group spans two sectors, and per rest otherwise.

    Sums are exact in int64.  No cell has more terms than the largest
    block's entries times the most entries of one vector, which is below
    2^lam.  The amplitudes are cut into limbs of sigma bits (one limb when
    they fit) and the block values into limbs of beta = 62 - lam - 2 sigma
    bits (_limbs), so a product of three limbs is below 2^(62 - lam) and a
    cell's sum over one limb triple below 2^62; the limb sums are shifted
    and added in Python ints.  The vectors are read in chunks of whole
    vectors whose entries fill at most CHUNK_BYTES (all at once for cross
    cells), and a chunk's pairs of entries are summed in chunks of whole
    bra vectors under that bound.
    """
    _, _, phases = removals(basis.n, 2, basis.statistics is FERMION)
    width = len(phases)
    counts = np.array([len(v) for v in vectors])
    ends = np.cumsum(counts)
    parts = [slice(0, len(vectors))] if cross else [*chunks(ends * width * _ENTRY_BYTES)]

    def read(part):
        """The part's states and coefficients, vector after vector, and
        the position of each vector's first."""
        chosen = vectors[part]
        states = np.fromiter(chain.from_iterable(chosen), np.int64, counts[part].sum())
        coeffs = np.array([*chain.from_iterable(v.values() for v in chosen)], dtype=object)
        return states, coeffs, np.cumsum(counts[part]) - counts[part]

    used, top, one_sector = [], 0, not cross
    for part in parts:
        states, coeffs, firsts = read(part)
        used.append(_distinct(states))
        top = max(top, int(np.abs(coeffs).max()).bit_length())
        if one_sector:
            sectors = basis.state_sectors(states)
            one_sector = (sectors == np.repeat(sectors[firsts], counts[part], axis=0)).all()
    states = _distinct(np.concatenate(used))
    classes = np.zeros(len(states), dtype=np.int64)
    if one_sector:
        _, classes = np.unique(basis.state_sectors(states), axis=0, return_inverse=True)
        classes = classes.ravel()
    block_of, place_of, sizes, offsets, values = _blocks(basis, states, classes)
    lam = (int(np.bincount(block_of).max()) * int(counts.max()) * width).bit_length()
    room = 62 - lam - _MIN_VALUE_BITS
    sigma = top if 2 * top <= room else room // 2
    beta = 62 - lam - 2 * sigma
    if sigma < 1 or beta < 1:
        raise InternalConsistencyError(f"Coulomb cells of 2^{lam} terms overflow int64 limbs")
    pieces = -(-top // sigma)
    values = _limbs(values, beta, -(-int(np.abs(values).max()).bit_length() // beta))
    shifts = [
        (a, b, v, sigma * (a + b) + beta * v)
        for a in range(pieces) for b in range(pieces) for v in range(len(values))
    ]
    block_of, place_of = block_of.reshape(-1, width), place_of.reshape(-1, width)
    scale = math.factorial(basis.n)
    weights = map(multiset_weight, map(basis.orbitals, states.tolist()))
    state_norms = np.array([scale * weight for weight in weights], dtype=object)
    sums, norms = {}, []
    for part in parts:
        items, coeffs, firsts = read(part)
        items = np.searchsorted(states, items)
        norms += np.add.reduceat(coeffs * coeffs * state_norms[items], firsts).tolist()
        # The part's entries, grouped by (vector, block).
        owner = np.repeat(np.arange(part.start, part.stop), counts[part] * width)
        order = np.argsort(owner * len(sizes) + block_of[items].ravel())
        item, column = np.divmod(order, width)
        owner, block = owner[order], block_of[items[item], column]
        place = place_of[items[item], column]
        signed = [limb[item] * phases[column] for limb in _limbs(coeffs, sigma, pieces)]
        first = np.flatnonzero(np.diff(block, prepend=-1) | np.diff(owner, prepend=-1))
        size, group_owner = np.diff(first, append=len(order)), owner[first]
        # A group pairs with itself for the diagonal.  For cross cells
        # it pairs with the groups of its block from itself to the last,
        # in by_block, the order of the groups by (block, vector): lo to
        # hi there.
        last_terms = np.cumsum(size * size)
        if cross:
            by_block = np.lexsort((group_owner, block[first]))
            lo = np.empty_like(by_block)
            lo[by_block] = np.arange(len(by_block))
            hi = np.searchsorted(block[first][by_block], block[first], side="right")
            partners = np.concatenate(([0], np.cumsum(size[by_block])))
            last_terms = np.cumsum(size * (partners[hi] - partners[lo]))
        vector_ends = np.flatnonzero(np.diff(group_owner, append=-1)) + 1
        done = 0
        for chunk in chunks(last_terms[vector_ends - 1] * _PAIR_BYTES):
            stop = vector_ends[chunk.stop - 1]
            bra = ket = np.arange(done, stop)
            if cross:
                bra, _, j = _grid(np.ones_like(bra), hi[bra] - lo[bra])
                bra += done
                ket = by_block[lo[bra] + j]
                by_cell = np.argsort(group_owner[bra] * len(vectors) + group_owner[ket])
                bra, ket = bra[by_cell], ket[by_cell]
            cell = group_owner[bra] * len(vectors) + group_owner[ket]
            done = stop
            if not len(cell):
                continue
            pair, i, j = _grid(size[bra], size[ket])
            e, f = first[bra][pair] + i, first[ket][pair] + j
            at = offsets[block[e]] + place[e] * sizes[block[e]] + place[f]
            # A cell's terms are consecutive: sum them per cell.
            new_cell = np.flatnonzero(np.diff(cell, prepend=-1))
            starts = np.searchsorted(pair, new_cell)
            keys = cell[new_cell].tolist()
            for a, b, v, shift in shifts:
                terms = signed[a][e] * signed[b][f] * values[v][at]
                for key, total in zip(keys, np.add.reduceat(terms, starts).tolist()):
                    sums[key] = sums.get(key, 0) + (total << shift)
    numerators = {divmod(key, len(vectors)): scale * total for key, total in sums.items()}
    return numerators, norms


def multiset_weight(orbitals):
    """Product of multiplicity factorials times the Hermite norm of the
    orbitals (sorted, so equal orbitals are adjacent)."""
    return multiplicity_factorials(orbitals) * hermite_norm_rational(sum(orbitals, ()))


def _integer_support(coeffs):
    """({index: c * L}, L): the nonzero coefficients as integers over their
    least common denominator L; coeffs itself when they are nonzero ints."""
    if all(type(c) is int and c for c in coeffs.values()):
        return coeffs, 1
    exact = {idx: as_exact(c) for idx, c in coeffs.items() if c}
    scale = math.lcm(*(c.denominator for c in exact.values()))
    return {idx: c.numerator * (scale // c.denominator) for idx, c in exact.items()}, scale


def coulomb_table(vectors, basis, pairwise=False):
    """{(i, j): <v_i| sum 1/r |v_j> / norms} for every i <= j if pairwise,
    else for i = j, over sparse {state index: coeff} vectors of one
    LevelBasis, realized as products of unnormalized Hermite functions; {}
    for no vectors.

    The contraction runs in the state basis and in integers: each vector's
    coefficients over their common denominator L (_integer_support), and
    one _contract for the whole table gives D <v_i|V|v_j> and the norms.
    Each entry divides its numerator by D L_i L_j and the norms' product by
    (L_i L_j)^2, each a correctly rounded int / int, so the result does
    not depend on the normalization convention.
    """
    supports = [_integer_support(v) for v in vectors]
    if not all(ints for ints, _ in supports):
        raise ValueError("zero state has no Coulomb expectation")
    cells = [
        (i, j)
        for i in range(len(vectors))
        for j in range(i, len(vectors) if pairwise else i + 1)
    ]
    if basis.n < 2 or not cells:
        return dict.fromkeys(cells, 0.0)
    numerators, norms = _contract(basis, [ints for ints, _ in supports], pairwise)
    denominator, _ = _level_weights(basis.d, basis.grade)
    _, pi_pow = beta_integral_exact(basis.d, 0)
    prefactor = math.sqrt(2.0) * math.pi ** (pi_pow - 0.5)
    out = {}
    for i, j in cells:
        scale = supports[i][1] * supports[j][1]
        numerator = numerators.get((i, j), 0) / (denominator * scale)
        out[i, j] = prefactor * numerator / math.sqrt(norms[i] * norms[j] / (scale * scale))
    return out


def coulomb_expectation(bra, ket, basis):
    """<Psi_bra| sum_{i<j} 1/|r_i - r_j| |Psi_ket> / norms, over sparse
    {state index: coeff} vectors of one LevelBasis: the (0, 1) cell of
    coulomb_table([bra, ket], basis, pairwise=True)."""
    return coulomb_table([bra, ket], basis, pairwise=True)[0, 1]
