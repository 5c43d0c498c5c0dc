"""The Pieri images and the axis transport over orbital tuples.

This is the route the package took before a basis state became a tuple of
orbital codes: a level is enumerated as descending tuples of orbital
vectors, a factor e_m^[k](axis) raises entries of the orbitals themselves
and re-sorts the rows by orbital_key, and an axis permutation permutes
every orbital's entries.  Nothing here reads the package's code tables;
the tests compare these routes with the rows of products._subset_rows,
located by LevelBasis.locate_signed, and with shapegen._permute_axes.
"""

from functools import cache
from itertools import combinations

from shapes.counting import FERMION
from shapes.polycore import canonical_rows, orbital_key


def _orbitals_up_to(d, max_degree):
    """All d-dimensional orbital vectors of degree <= max_degree, descending."""
    orbs = []

    def rec(prefix, remaining):
        if len(prefix) == d:
            orbs.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], max_degree)
    orbs.sort(key=orbital_key, reverse=True)
    return orbs


@cache
def orbital_level(n, d, grade, statistics):
    """(states, index): a level's orbital tuples in enumeration order
    (descending in the canonical order) and each one's position."""
    candidates = _orbitals_up_to(d, grade)
    degrees = [sum(o) for o in candidates]
    fermion = statistics is FERMION
    out = []
    chosen = []

    def rec(start, slots, remaining):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(chosen))
            return
        for idx in range(start, len(candidates)):
            deg = degrees[idx]
            if fermion and len(candidates) - idx < slots:
                break
            if deg > remaining:
                continue
            cap = sum(degrees[idx : idx + slots]) if fermion else deg * slots
            if cap < remaining:
                break
            chosen.append(candidates[idx])
            rec(idx + 1 if fermion else idx, slots - 1, remaining - deg)
            chosen.pop()

    rec(0, n, grade)
    return tuple(out), {s: i for i, s in enumerate(out)}


def factor_image(n, d, grade, statistics, factor, i):
    """{target index: coeff}: state i of a level times e_m^[k](axis)."""
    m, k, axis = factor
    states, _index = orbital_level(n, d, grade, statistics)
    _states, index = orbital_level(n, d, grade + m * k, statistics)
    rows = [orbital_key(orb) for orb in states[i]]
    shifted = [
        (deg + k, orb[:axis] + (orb[axis] + k,) + orb[axis + 1 :]) for deg, orb in rows
    ]
    image = {}
    for subset in combinations(range(n), m):
        moved = list(rows)
        for r in subset:
            moved[r] = shifted[r]
        moved, sign = canonical_rows(moved, statistics is FERMION)
        if sign:
            target = index[tuple(orb for _deg, orb in moved)]
            image[target] = image.get(target, 0) + sign
    return {t: c for t, c in image.items() if c}


def permute_axes(n, d, grade, statistics, vec, perm):
    """A {state index: coeff} vector of a level with its axes permuted."""
    states, index = orbital_level(n, d, grade, statistics)
    out = {}
    for i, c in vec.items():
        rows, sign = canonical_rows(
            [orbital_key(tuple(orb[a] for a in perm)) for orb in states[i]],
            statistics is FERMION,
        )
        out[index[tuple(orb for _deg, orb in rows)]] = sign * c
    return out
