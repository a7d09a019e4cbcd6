"""Simulation of fuzzy sets on a quantum register.

Fuzzy membership functions over a finite universe are loaded into qubit
registers, fuzzy connectives act as gates (Pauli-X complement, Toffoli
intersection), square-window fuzzification and center-of-mass
defuzzification run as linear maps and basis permutations, and arbitrary
register states serve as superposed, possibly entangled fuzzy sets.
"""

from .analysis import (
    EntanglementReport,
    OrthogonalityVerdict,
    cfs_inner,
    check_orthogonality,
    entanglement_report,
)
from .errors import ResourceLimitError
from .exprparser import (
    Environment,
    EvalError,
    ParseError,
    eval_classical,
    eval_quantum,
    evaluate,
    parse,
    plan,
    pretty_print,
)
from .fuzzy import (
    CrispSubset,
    FuzzySet,
    classical_fuzzify,
    com_pushforward,
    complement,
    crisp_subset_probability,
    intersect,
    union,
)
from .qfs import (
    QuantumFuzzySet,
    RegisterLayout,
    defuzzify,
    encode,
    expansion_coeff,
    fuz_isometry,
    qand,
    qnot,
    qor,
    superpose,
    value_marginals,
)
from .reference import (
    PAULI_X,
    apply_controlled,
    apply_single,
    com_index,
    fuz_linear,
    ground_state,
    measure_qubits,
    one_probabilities,
    oracle_distribution,
    rotation_gate,
    sampling_vs_oracle,
    total_variation,
    u_com,
)
from .statevec import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    basis_probability,
    basis_state,
    bloch_point,
    factor_product_state,
    inner_product,
    sample_distribution,
    schmidt_rank,
    tensor_product,
)

__version__ = "0.1.0"
