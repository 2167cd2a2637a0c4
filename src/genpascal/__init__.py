"""Exact-arithmetic generalized Pascal matrices.

Lower-triangular matrices whose entries are ratios of generalized factorials,
handled entirely in exact rational arithmetic: construction from coefficient
series, Hadamard group operations and mask-weight decomposition, fractal
families with digit-recursive fast evaluation, zero (Sierpinski-type)
patterns with their carryless convolution algebra, and a CLI for generation,
verification and export.
"""

from .digits import digits, valuation
from .errors import NotFractal, SizeMismatch, ZeroEntry, ZeroFactor, ZeroPhi
from .fractal import (
    b_functional_equation_check,
    carry_count,
    fast_gbinom_fractal,
    fractal_c_check,
    fractal_column,
    fractal_entry,
    fractal_matrix,
    fractal_row,
    pascal_prime_factorization,
)
from .matrices import (
    TriangularMatrix,
    all_ones,
    build_from_c,
    gbinom,
    hadamard,
    hadamard_inverse,
    identity_check,
    identity_matrix,
    matmul,
    subtract,
)
from .polynomials import Polynomial, w_poly
from .rationals import format_rational, parse_rational
from .report import Report
from .sequences import BSequence, CSequence, fractal_b
from .special import (
    PhiCoordinates,
    homomorphism_check,
    phi_coordinates,
    phi_q_matrix,
    phi_q_series,
    q_umbral_inverse,
    q_umbral_matrix,
    zero_overlay_matrix,
)
from .specs import GPSpec
from .zeroalg import (
    block_matrix,
    block_product_check,
    carryless_convolve,
    digit_binom,
    fractal_series,
    kronecker,
    masked_convolve,
    masked_matrix,
    sierpinski_matrix,
    sierpinski_selfsim_check,
    t_coefficient,
    t_matrix,
)

__version__ = "0.1.0"
