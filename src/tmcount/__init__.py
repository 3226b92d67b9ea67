"""Exponents of block-tridiagonal transfer matrices and their counting
function, computed from ring-resolvent corner blocks on contours.

The public surface re-exports the system data model, the direct
transfer-product oracle, the ring operators with their determinant and
resolvent machinery, the counting-function quadrature with exponent
locating, and the Anderson bar generator.
"""

from .anderson import (AndersonConfig, anderson_meta, build_slice,
                       clean_limit_exponents, generate,
                       transverse_mode_energies)
from .counting import (CountingSample, QuadratureSpec, counting_function,
                       counting_integrand, counting_integrand_corner,
                       counting_sweep, imaginary_part_check, jensen_relation,
                       locate_exponents, positive_exponent_sum,
                       total_exponent_sum)
from .hamiltonian import (RingBandWorkspace, ScaleOverflowError,
                          SpectrumCollisionError, build_hamiltonian,
                          det_shifted, duality_residual,
                          resolvent_corners_open, similarity_transform_check)
from .operators import (BlockTridiagonalSystem, ValidationError,
                        ValidationReport, hermitian_check, load_system,
                        save_system, validate_system)
from .transfer import (ExponentSet, NumericalError, TransferMatrix,
                       one_step_factors, stable_exponents, transfer_product)

__all__ = [
    "AndersonConfig",
    "BlockTridiagonalSystem",
    "CountingSample",
    "ExponentSet",
    "NumericalError",
    "QuadratureSpec",
    "RingBandWorkspace",
    "ScaleOverflowError",
    "SpectrumCollisionError",
    "TransferMatrix",
    "ValidationError",
    "ValidationReport",
    "anderson_meta",
    "build_hamiltonian",
    "build_slice",
    "clean_limit_exponents",
    "counting_function",
    "counting_integrand",
    "counting_integrand_corner",
    "counting_sweep",
    "det_shifted",
    "duality_residual",
    "generate",
    "hermitian_check",
    "imaginary_part_check",
    "jensen_relation",
    "load_system",
    "locate_exponents",
    "one_step_factors",
    "positive_exponent_sum",
    "resolvent_corners_open",
    "save_system",
    "similarity_transform_check",
    "stable_exponents",
    "total_exponent_sum",
    "transfer_product",
    "transverse_mode_energies",
    "validate_system",
]
