"""Helpers on expanded polynomials shared by the test modules."""

from shapes.polycore import ExactPolynomial


def swap_particles(poly, i, j):
    """poly with all d exponents of particles i and j exchanged in every monomial."""
    d = poly.d
    terms = {}
    for mono, coeff in poly.terms.items():
        rows = [mono[p * d : (p + 1) * d] for p in range(poly.n)]
        rows[i], rows[j] = rows[j], rows[i]
        terms[tuple(e for row in rows for e in row)] = coeff
    return ExactPolynomial(poly.n, d, terms)
