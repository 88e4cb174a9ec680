"""steerbound: device-independent certification of the CHSH-type steering
assemblage via operator inequalities, with numerical cross-checks."""

from .assemblage import (
    Assemblage,
    ClassicalStrategy,
    QuantumRealization,
    ValidationReport,
    chsh_reference,
    from_classical,
    realize,
    validate,
)
from .fidelity import (
    ExtractionChannel,
    appendix_b_strategy,
    assemblage_fidelity,
    classical_fidelity,
    extractability,
    state_fidelity,
)
from .matkernel import ValidationError
from .numsearch import (
    SandwichReport,
    SearchConfig,
    sandwich_sweep,
)
from .selftest import (
    BoundCoefficients,
    S_OPTIMAL,
    T_OPTIMAL,
    THRESHOLD_BETA,
    TRIVIAL_CLASSICAL_FIDELITY,
    analytic_bound,
    certified_lower_bound,
    coefficient_search,
    dephasing_channel,
    extractability_with_channel,
    t_constraints,
    upper_bound,
    xi_star,
)
from .steering import (
    BETA_CLASSICAL,
    BETA_QUANTUM,
    chsh_functional,
    max_violation_over_theta,
    t_operators,
)

__version__ = "0.1.0"
