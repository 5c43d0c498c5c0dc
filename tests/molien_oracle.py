"""Independent Molien-sum oracle for the shape count laws.

The shapes of n particles in d dimensions generate the (anti)symmetric
polynomials as a free module over the Euler (symmetric) polynomials of
each axis, so their multigraded count is the Molien sum of the
(anti)symmetric part, times prod_axes prod_{i<=n} (1 - q_a^i):

    (1/n!) sum_{lambda |- n} |C_lambda| eps_lambda
        prod_axes [prod_{i<=n} (1 - q_a^i) / prod_{c in lambda} (1 - q_a^c)],

with |C_lambda| = n!/z_lambda the size of the cycle class lambda and
eps_lambda = (-1)^(n - len(lambda)) for fermions, 1 for bosons.

Nothing here shares code or algebra with shapes.counting: no recursion in
n, no factors [C(n,k)], no running sums.  A polynomial is a dict from a
degree (an exponent tuple, one entry per axis, for the counts per sector)
to a nonzero integer.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import product


def partitions(n, largest=None):
    """Every partition of n, as a non-increasing tuple of parts."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def multiply(a, b):
    """Product of two univariate polynomials, zeros dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def divide_one_minus(p, c):
    """p / (1 - q^c) for a univariate p that 1 - q^c divides, by long
    division from the top degree down."""
    rem = dict(p)
    quotient = {}
    while rem:
        top = max(rem)
        assert top >= c, f"1 - q^{c} does not divide the polynomial"
        coeff = -rem.pop(top)
        quotient[top - c] = coeff
        rem[top - c] = rem.get(top - c, 0) - coeff
        if not rem[top - c]:
            del rem[top - c]
    return quotient


@lru_cache(maxsize=None)
def class_factor(n, cycles):
    """prod_{i<=n} (1 - q^i) / prod_{c in cycles} (1 - q^c), univariate."""
    poly = {0: 1}
    for i in range(1, n + 1):
        poly = multiply(poly, {0: 1, i: -1})
    for c in cycles:
        poly = divide_one_minus(poly, c)
    return poly


def class_size(n, cycles):
    """Number of permutations of n points with the given cycle type."""
    z = 1
    for length, mult in Counter(cycles).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


def molien_counts(n, d, fermion, graded=False):
    """Shape counts per sector {per-axis degree tuple: count}, or with
    ``graded`` per total degree {degree: count} (all q_a = q)."""
    total = {}
    for cycles in partitions(n):
        sign = (-1) ** (n - len(cycles)) if fermion else 1
        weight = sign * class_size(n, cycles)
        factor = class_factor(n, cycles)
        if graded:
            term = {0: weight}
            for _ in range(d):
                term = multiply(term, factor)
        else:
            term = {}
            for picks in product(factor.items(), repeat=d):
                key = tuple(e for e, _ in picks)
                term[key] = weight * math.prod(v for _, v in picks)
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    counts = {}
    for e, v in total.items():
        count, rest = divmod(v, math.factorial(n))
        assert not rest, f"Molien sum {v} at {e} is not divisible by {n}!"
        if count:
            counts[e] = count
    return counts
