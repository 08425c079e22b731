"""Toolkit for multipartite product bases built from control-DFT circuits,
the unextendible product bases they contain, and the bound-entangled states
on their complements."""

from .boundent import (
    DensityMatrix,
    be_state,
    member_annihilation,
    ppt_report,
    separability_completion,
    separability_report,
    state_rank,
)
from .circuit import (
    Circuit,
    ControlDftGate,
    check_commutation,
    generate_basis,
    validate_exclusivity,
)
from .config import tolerance
from .ensembles import (
    canonical_circuit,
    extended_circuit_fig4,
    four_qutrit_circuit,
    local_factor_census,
    preset_circuit,
    shift_circuit,
)
from .errors import NlweError
from .lemma import (
    LemmaCheck,
    isotropy_dimension,
    lemma_check,
    preserves_orthogonality,
)
from .linalg import (
    dft_matrix,
    hermitian_eigenvalues,
    orthogonal_complement_basis,
    partial_transpose,
    span_dimension,
)
from .report import Check, VerificationReport
from .states import CB, DFT, Dense, ProductBasis
from .upb import (
    ExtendibilityResult,
    Upb,
    extendibility_search,
    extract_upb,
    is_unextendible,
    minimal_size,
)

__version__ = "0.1.0"
