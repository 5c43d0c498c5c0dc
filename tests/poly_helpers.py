"""Helpers shared by the test modules: on expanded polynomials, q-series, and exact row reduction."""

from fractions import Fraction

from shapes.polycore import ExactPolynomial


def rref(vectors, dim):
    """Row-reduced echelon form over exact rationals, for subspace equality.

    vectors are sparse {index: coeff} dicts or dense sequences of length dim.
    """
    rows = [
        [Fraction(v.get(i, 0) if isinstance(v, dict) else v[i]) for i in range(dim)]
        for v in vectors
    ]
    pivot_row = 0
    for col in range(dim):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows[:pivot_row]]


def swap_particles(poly, i, j):
    """poly with all d exponents of particles i and j exchanged in every monomial."""
    d = poly.d
    terms = {}
    for mono, coeff in poly.terms.items():
        rows = [mono[p * d : (p + 1) * d] for p in range(poly.n)]
        rows[i], rows[j] = rows[j], rows[i]
        terms[tuple(e for row in rows for e in row)] = coeff
    return ExactPolynomial(poly.n, d, terms)


def q_product(*factors, truncation=None):
    """Product of q-polynomials given as {degree: coeff} dicts, zeros dropped;
    with a truncation, every degree above it is dropped too."""
    out = {0: 1}
    for factor in factors:
        step = {}
        for da, ca in out.items():
            for db, cb in factor.items():
                if truncation is None or da + db <= truncation:
                    step[da + db] = step.get(da + db, 0) + ca * cb
        out = {deg: c for deg, c in step.items() if c}
    return out
