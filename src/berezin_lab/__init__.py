"""Operator symbols on a finite set, the Berezin transform, and rank
analysis of the unitary-to-doubly-stochastic squared-modulus map."""

from .matrices import (
    MatrixFileError,
    NotUnitaryError,
    Unitary,
    ZeroEntryError,
    haar_random_unitary,
    load_matrix,
    save_matrix,
    to_doubly_stochastic,
    validate_unitary,
)
from .spectral import InvariantViolation, SpectralSummary, spectrum
from .submersion import (
    JacobianReport,
    SweepReport,
    jacobian_report,
    skew_hermitian_basis,
    submersion_sweep,
    tangent_direction,
)
from .symbols import (
    BerezinTransform,
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
    operator_to_c_symbol,
    operator_to_d_symbol,
)
from .symmetry import (
    check_permutation_equivariance,
    check_shift_commutation,
    check_weyl_relations,
    fourier_eigenfunction_check,
    fourier_matrix,
    isotypic_clusters,
    symmetric_family_matrix,
    verify_symmetric_family_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
