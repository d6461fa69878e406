"""Operator quantum error correction on subsystem decompositions.

The space splits as V = (A tensor B) + C: A carries the protected
information, B is a gauge factor the noise may scramble, C is the reachable
remainder. The package decides whether a Kraus channel is correctable on A,
synthesizes recovery channels as two normalizations of one error family,
checks them independently, factors correctable noise on the code sector as
E_l P = W (1_A tensor N_l), and traces coherent information through channel
chains.
"""

from .channels import (
    Channel,
    ChannelReport,
    apply,
    bit_flip,
    choi,
    collective_unitary,
    compose,
    depolarizing,
    identity,
    phase_flip,
    random_channel,
    restricted_flip,
    single_qubit_on,
    unitary,
    validate,
)
from .codes import CatalogEntry, catalog, get
from .conditions import (
    ConditionReport,
    PurifiedState,
    check_condition_b,
    check_condition_c,
    check_condition_d,
    coherent_info,
    dpi_trace,
    purify,
)
from .errors import (
    DegenerateChannelError,
    DimensionError,
    FormatError,
    NotAStateError,
    NotCorrectableError,
    NotHermitianError,
)
from .linalg import (
    eig_hermitian,
    kron,
    partial_trace,
    von_neumann_entropy,
)
from .recovery import (
    Factorization,
    Recovery,
    VerificationReport,
    extend_by_linearity,
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from .spaces import Decomposition, embed_state, projector_p

__version__ = "0.1.0"
