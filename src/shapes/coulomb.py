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
convention-free.  The same orthogonality contracts the spectator particles
exactly.  Many-body expectations contract in the state basis: by the
Slater-Condon rules, with Lowdin's occupation-number factors for permanents
(Phys. Rev. 97, 1474, 1955), two Slater/permanent states couple only through
the orbital multisets of size n-2 they share, their rests, and no state is
expanded into its n! monomials.  A whole table is one contraction
(CoulombOperator.contract): each vector's states are split, from the level's
code array, into entries (rest, removed pair, phase x coefficient), and two
entries on one rest add their amplitudes' product times the pair value
D ([x y|z w] +- [x y|w z]) and the rest's weight, each computed once per
level.  The sums are exact in int64, in limbs whose widths a bound on a
cell's term count sets so that no sum reaches 2^62; the limbs are combined
in Python ints, and each entry is divided and rounded once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, combinations

import numpy as np

from .counting import FERMION
from .errors import InternalConsistencyError
from .polycore import _as_exact, chunk_rows, chunks, multiplicity_factorials


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


def _hermite_at_zero(k):
    """H_k(0): zero for odd k, (-1)^(k/2) k!/(k/2)! for even k."""
    if k % 2:
        return 0
    half = k // 2
    return (-1) ** half * math.factorial(k) // math.factorial(half)


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
def _axis_table(n, np_, m, mp):
    """Per-axis contributions: a tuple of (s, integer) pairs, s = k + k',
    whose integer is the exact factor at s times 2^(s/2), or None if the
    axis parity n + n' + m + m' is odd (the element then vanishes).  Cached,
    so the result is immutable."""
    if (n + np_ + m + mp) % 2:
        return None
    a_bra = hermite_linearization(n, m)
    a_ket = hermite_linearization(np_, mp)
    table = {}
    for k, ak in enumerate(a_bra):
        if not ak:
            continue
        for kp, akp in enumerate(a_ket):
            if not akp or (k + kp) % 2:
                continue
            s = k + kp
            table[s] = table.get(s, 0) + ak * akp * (-1) ** k * _hermite_at_zero(s)
    return tuple((s, c) for s, c in table.items() if c)


def _two_body_terms(bra1, bra2, ket1, ket2, d):
    """Integer terms ((l, c_l), ...) of the rational part R of the element,
    R = sum_l c_l 2^(-l/2) I_d(l).

    The element equals R * sqrt(2) * pi^(d - 1/2 + p) with p from
    beta_integral_exact; no terms whenever any axis has odd total parity.
    Per axis k <= bra + ket index, so l is at most the sum of the four
    orbitals' degrees.  Not cached: CoulombOperator keeps each pair's
    weighted sum instead, which holds one integer where the terms are a
    tuple per index quadruple.
    """
    acc = {0: 1}
    for i in range(d):
        table = _axis_table(bra1[i], bra2[i], ket1[i], ket2[i])
        if table is None:
            return ()
        new = {}
        for l, c in acc.items():
            for s, f in table:
                new[l + s] = new.get(l + s, 0) + c * f
        acc = new
    return tuple((l, c) for l, c in acc.items() if c)


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


def _scaled_element(terms, weights):
    """sum_l c_l W[l // 2]: D times the rational part of one two-body element."""
    try:
        return sum(c * weights[l // 2] for l, c in terms)
    except IndexError:
        raise InternalConsistencyError(
            f"two-body term of degree {max(l for l, _ in terms)} exceeds the level "
            f"bound {2 * (len(weights) - 1)}"
        ) from None


def _element_prefactor(d):
    # pi^d * sqrt(2/pi) * pi^p where p is the Beta-integral pi power.
    _, pi_pow = beta_integral_exact(d, 0)
    return math.sqrt(2.0) * math.pi ** (d - 0.5 + pi_pow)


def two_body_element(bra1, bra2, ket1, ket2, d=None):
    """Coulomb matrix element [n n' | 1/|R-R'| | m m'] between Hermite products.

    Indices are d-tuples of per-axis Hermite quantum numbers for the two
    interacting particles (bra pair, then ket pair).  Vanishes exactly
    whenever any axis has odd total parity.
    """
    tuples = tuple(tuple(int(e) for e in v) for v in (bra1, bra2, ket1, ket2))
    if d is None:
        d = len(tuples[0])
    if any(len(v) != d for v in tuples):
        raise ValueError("index tuples must all have length d")
    if any(e < 0 for v in tuples for e in v):
        raise ValueError("Hermite indices must be non-negative")
    terms = _two_body_terms(*tuples, d)
    if not terms:
        return 0.0
    # l is even and at most the four orbitals' degree sum, so half that sum
    # is a grade whose weights cover every term.
    denominator, weights = _level_weights(d, sum(map(sum, tuples)) // 2)
    rat = Fraction(_scaled_element(terms, weights), denominator)
    return float(rat) * _element_prefactor(d)


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
# are cut into limbs as well (CoulombOperator.contract).
_MIN_VALUE_BITS = 16


@cache
def _removals(n, fermion):
    """(picked, kept, phases) of the C(n, 2) position pairs p < q of a row
    of n codes, in combinations order: the pair's two columns, the other
    n - 2 columns in order, and the phase of moving the pair to the front,
    (-1)^(p + q - 1) for a determinant and 1 for a permanent, as in
    LevelBasis.rests."""
    pairs = [*combinations(range(n), 2)]
    kept = [[k for k in range(n) if k not in pair] for pair in pairs]
    phases = [(-1) ** (p + q - 1) if fermion else 1 for p, q in pairs]
    kept = np.array(kept, dtype=np.intp).reshape(len(pairs), n - 2)
    return np.array(pairs), kept, np.array(phases)


def _grid(rows, columns):
    """(k, i, j) of every (i, j) in range(rows[k]) x range(columns[k]),
    k after k, row-major."""
    counts = rows * columns
    k = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    return (k, *np.divmod(within, columns[k]))


def _distinct(values):
    """The distinct values of an int array, ascending: np.unique without
    its masked-array check, which imports numpy.ma on first use."""
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


class CoulombOperator:
    """Exact Coulomb data of one level, kept by its LevelBasis and reused by
    every table on it.

    By the Slater-Condon rules, with Lowdin's occupation-number factors for
    permanents, two states of a level couple only through the orbital
    multisets R of size n-2 that both contain (their rests), and

        D <S_a|V|S_b> = n! sum_R W_R sum eps_a eps_b P(x y, z w),

    the inner sum over the removed pairs (x, y) of a and (z, w) of b that
    leave R (LevelBasis.rests), eps the phase of moving the pair to the
    front (1 for permanents), W_R = mult(R)! N_R the product of R's
    multiplicity factorials and its Hermite norm, and P(x y, z w) =
    D ([x y|z w] +- [x y|w z]) with - for fermions, in units of
    sqrt(2) pi^(d - 1/2 + p) sqrt(pi)^((n-2) d).  ``denominator`` is the
    level's D (_level_weights).  ``norm(a)`` is the integer <S_a|S_a> =
    n! mult(a)! N_a in units of sqrt(pi)^(n d).  P per unordered pair of
    pairs, the last axis's contraction against the weights per last-axis
    quadruple, W_R per rest and the norms are computed on first use and
    kept.
    """

    def __init__(self, basis):
        self.basis = basis
        self.denominator, self._weights = _level_weights(basis.d, basis.grade)
        self._scale = math.factorial(basis.n)
        self._exchange = -1 if basis.statistics is FERMION else 1
        self._norms = {}
        self._pairs = {}
        self._last_axis = {}
        self._rest_weights = {}

    def _pair(self, x, y, z, w):
        """P(x y, z w) for orbitals given by their codes, kept under the key
        (x, y, z, w) the caller gives; P(x y, z w) = P(z w, x y)."""
        key = (x, y, z, w)
        value = self._pairs.get(key)
        if value is None:
            x, y, z, w = self.basis.codes.decode(key)
            exchange = self._exchange * self._element(x, y, w, z)
            value = self._pairs[key] = self._element(x, y, z, w) + exchange
        return value

    def _element(self, bra1, bra2, ket1, ket2):
        """D times the rational part of one two-body element: the terms of
        every axis but the last (_two_body_terms) dotted with the last
        axis's table contracted against the weights, K[j] = sum_s f_s
        W[j + s // 2], which is kept per last-axis quadruple (None where
        that axis makes the element vanish)."""
        last = bra1[-1], bra2[-1], ket1[-1], ket2[-1]
        if last not in self._last_axis:
            table, weights, contracted = _axis_table(*last), self._weights, None
            if table:
                shifts = range(len(weights) - max(s for s, _ in table) // 2)
                contracted = tuple(sum(f * weights[j + s // 2] for s, f in table) for j in shifts)
            self._last_axis[last] = contracted
        contracted = self._last_axis[last]
        if contracted is None:
            return 0
        terms = _two_body_terms(bra1, bra2, ket1, ket2, self.basis.d - 1)
        return _scaled_element(terms, contracted)

    def _rest_weight(self, key, rest):
        """W_R of the rest with combinadic key `key` and codes `rest`."""
        weight = self._rest_weights.get(key)
        if weight is None:
            weight = self._rest_weights[key] = _multiset_weight(self.basis.codes.decode(rest))
        return weight

    def norm(self, a):
        value = self._norms.get(a)
        if value is None:
            value = self._norms[a] = self._scale * _multiset_weight(self.basis.orbitals(a))
        return value

    def _blocks(self, states, classes):
        """The blocks of per-rest pair amplitudes of some distinct states.

        A state's entries are its C(n, 2) position pairs (_removals), each
        removing a pair and leaving a rest.  A block is a rest and a class
        (classes[i] of the i-th state); its slots are the distinct pairs its
        entries remove, and its values are W_R P(e, f) for every ordered
        pair (e, f) of its slots, as Python ints.  Returns (block, place,
        sizes, offsets, values): per entry (states x C(n, 2), row-major)
        its block and its slot's place there, and per block its slot count
        m and the offset of its m x m values, row-major in values.  P is
        looked up once per unordered pair of pairs and W_R once per rest.
        """
        basis = self.basis
        n, limit = basis.n, basis.codes.grow(basis.grade)
        picked, kept, _ = _removals(n, basis.statistics is FERMION)
        rows = basis.code_array[states].astype(np.int64)
        rest_rows = rows[:, kept].reshape(len(states) * len(picked), n - 2)
        rest_keys, first, rest = np.unique(
            basis._keys(rest_rows), return_index=True, return_inverse=True
        )
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
        x, y = np.divmod(pairs[quads // len(pairs)], limit)
        z, w = np.divmod(pairs[quads % len(pairs)], limit)
        values = np.array(
            [*map(self._pair, x.tolist(), y.tolist(), z.tolist(), w.tolist())], dtype=object
        )
        rests = rest_rows[first].tolist()
        weights = np.array([*map(self._rest_weight, rest_keys.tolist(), rests)], dtype=object)
        values = weights[block_keys // span][owner] * values[which.ravel()]
        return block, slot - starts[block], sizes, np.cumsum(sizes**2) - sizes**2, values

    def contract(self, vectors, diagonal, cross):
        """(numerators, norms) of integer vectors {state: coeff} over the
        level: numerators[i, j] = D <v_i|V|v_j> for the cells i = j if
        diagonal and i < j if cross (a cell whose vectors share no rest is
        left out), and norms[i] = <v_i|v_i>, exact ints.

        Each vector's entries are its states' entries (_blocks), with the
        amplitude s = phase x coefficient, grouped by (vector, block).  A
        cell (i, j) adds s_e s_f W_R P(e, f) over every entry e of a group
        of i and f of j's group in the same block.  The blocks are per rest
        and sector when only the diagonal is asked and every vector lies in
        one sector, so no group spans two sectors, and per rest otherwise.

        Sums are exact in int64.  No cell has more terms than the largest
        block's entries times the most entries of one vector, which is
        below 2^lam.  The amplitudes are cut into limbs of sigma bits (one
        limb when they fit) and the block values into limbs of beta = 62 -
        lam - 2 sigma bits (_limbs), so a product of three limbs is below
        2^(62 - lam) and a cell's sum over one limb triple below 2^62; the
        limb sums are shifted and added in Python ints.  The vectors are
        read in chunks of whole vectors whose entries fill at most
        CHUNK_BYTES (all at once for cross cells), and a chunk's pairs of
        entries are summed in chunks of whole bra vectors under that bound.
        """
        basis = self.basis
        _, _, phases = _removals(basis.n, basis.statistics is FERMION)
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
        block_of, place_of, sizes, offsets, values = self._blocks(states, classes)
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
        state_norms = np.array([*map(self.norm, states.tolist())], dtype=object)
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
            # it pairs with the groups of its block from the next one, or
            # from itself with the diagonal, to the last, in by_block, the
            # order of the groups by (block, vector): lo to hi there.
            last_terms = np.cumsum(size * size)
            if cross:
                by_block = np.lexsort((group_owner, block[first]))
                lo = np.empty_like(by_block)
                lo[by_block] = np.arange(len(by_block)) + (not diagonal)
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
        numerators = {divmod(key, len(vectors)): self._scale * total for key, total in sums.items()}
        return numerators, norms


def _multiset_weight(orbitals):
    """Product of multiplicity factorials times the Hermite norm of the
    orbitals (sorted, so equal orbitals are adjacent)."""
    return multiplicity_factorials(orbitals) * hermite_norm_rational(sum(orbitals, ()))


def _integer_support(coeffs):
    """({index: c * L}, L): the nonzero coefficients as integers over their
    least common denominator L; coeffs itself when they are nonzero ints."""
    if all(type(c) is int and c for c in coeffs.values()):
        return coeffs, 1
    exact = {idx: _as_exact(c) for idx, c in coeffs.items() if c}
    scale = math.lcm(*(c.denominator for c in exact.values()))
    return {idx: c.numerator * (scale // c.denominator) for idx, c in exact.items()}, scale


def coulomb_table(vectors, basis, pairwise=False):
    """{(i, j): <v_i| sum 1/r |v_j> / norms} for every i <= j if pairwise,
    else for i = j, over sparse {state index: coeff} vectors of one
    LevelBasis: one exact contraction for the whole table
    (CoulombOperator.contract), each entry rounded once."""
    return _expectations(vectors, basis, True, pairwise)


def coulomb_expectation(bra, ket, basis):
    """<Psi_bra| sum_{i<j} 1/|r_i - r_j| |Psi_ket> / norms.

    Both states are sparse {state index: coeff} vectors over the same
    LevelBasis, realized as products of unnormalized Hermite functions: the
    one-cell case of coulomb_table.
    """
    return _expectations([bra, ket], basis, False, True)[0, 1]


def _expectations(vectors, basis, diagonal, cross):
    """The cells (i, i) if diagonal and (i, j), i < j, if cross.

    The contraction runs in the state basis and in integers: each vector's
    coefficients over their common denominator L (_integer_support), and
    the level's CoulombOperator for D <v_i|V|v_j> and the norms.  Each
    entry divides its numerator by D L_i L_j and the norms' product by
    (L_i L_j)^2, each a correctly rounded int / int, so the result does
    not depend on the normalization convention.
    """
    supports = [_integer_support(v) for v in vectors]
    if not all(ints for ints, _ in supports):
        raise ValueError("zero state has no Coulomb expectation")
    cells = [
        (i, j)
        for i in range(len(vectors))
        for j in range(i if diagonal else i + 1, len(vectors) if cross else i + 1)
    ]
    if basis.n < 2:
        return dict.fromkeys(cells, 0.0)
    operator = basis.coulomb_operator
    numerators, norms = operator.contract([ints for ints, _ in supports], diagonal, cross)
    _, pi_pow = beta_integral_exact(basis.d, 0)
    prefactor = math.sqrt(2.0) * math.pi ** (pi_pow - 0.5)
    out = {}
    for i, j in cells:
        scale = supports[i][1] * supports[j][1]
        numerator = numerators.get((i, j), 0) / (operator.denominator * scale)
        out[i, j] = prefactor * numerator / math.sqrt(norms[i] * norms[j] / (scale * scale))
    return out
