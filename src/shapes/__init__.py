"""Exact construction of the shape generators of N-particle Hilbert space.

The N-identical-particle Hilbert space in d dimensions, graded by total
node count, is finitely generated: exactly N!^(d-1) antisymmetric (fermion)
or symmetric (boson) polynomials, the shapes, generate every state with
Euler-boson (elementary-symmetric-function) coefficients.  This package
counts them, constructs them explicitly over Slater-determinant/permanent
bases in exact rational arithmetic, and realizes them in the oscillator
basis for densities and Coulomb matrix elements.
"""

from .counting import (
    BOSON,
    FERMION,
    GradedQPolynomial,
    Statistics,
    dimension_series,
    euler_series,
    level_dimension,
    shape_polynomial,
    shape_recursion_factor,
    total_shape_count,
)
from .deflation import LevelBasis, StateVector, deflate_sparse
from .errors import InternalConsistencyError, StateCapExceeded
from .polycore import (
    EulerMonomial,
    ExactPolynomial,
    SlaterState,
    divide_exact,
    enumerate_basis,
    enumerate_euler_monomials,
    euler_power,
    vandermonde,
)
from .products import trivial_products
from .schur import Partition, factor_1d, partitions, schur_expand, schur_ratio, schur_ssyt
from .shapegen import (
    ShapeCatalog,
    ShapeRecord,
    SpanReport,
    generate_shapes,
    verify_span,
)
from .realize import (
    Axis,
    DensityGrid,
    Realization,
    one_particle_density,
    parse_grid,
    realize_polynomial,
    two_particle_density_cut,
)
from .coulomb import (
    beta_integral_exact,
    coulomb_expectation,
    hermite_linearization,
    two_body_element,
)

__version__ = "0.1.0"
