"""Coset-state uncloneable cryptography: simulators, games, and bounds.

Subpackages
-----------
``gf2``    linear algebra over Z_2: vectors, matrices, subspaces, cosets
``qsim``   coset-state preparation (statevector measurement lives in the tests)
``info``   closed-form bounds, entropy tools, density-operator utilities
``ext``    Toeplitz two-universal extractor and leftover-hash error
``ecc``    linear codes with syndrome decoding for reconciliation
``mc``     deterministic multithreaded Monte Carlo driver
``moe``    leaky monogamy-of-entanglement game and built-in strategies
``proto``  interactive protocols: encrypt-with-certified-deletion, commitment,
           receiver-independent key distribution, and the static-basis baseline
``cli``    command-line front end (``cosetmoe``)

The most commonly used names are re-exported here.
"""

from .gf2 import Gf2Matrix, Gf2Subspace, Gf2Vec, IndexSubset, sample_subspace
from .info import gamma_star, moe_bound, protocol_bounds
from .moe import MoeParams, all_builtin_strategies, builtin_strategy, play_leaky
from .proto import (
    PauliNoise,
    QecmParams,
    QkdParams,
    TfkwParams,
    UrbcParams,
    qecm_experiment,
    riqkd_experiment,
    run_qecm_id,
    run_riqkd,
    run_tfkw,
    run_urbc,
    tfkw_experiment,
    urbc_experiment,
)
from .qsim import CosetDescriptor, prepare_coset_state

__version__ = "0.1.0"

__all__ = [
    "CosetDescriptor",
    "Gf2Matrix",
    "Gf2Subspace",
    "Gf2Vec",
    "IndexSubset",
    "MoeParams",
    "PauliNoise",
    "QecmParams",
    "QkdParams",
    "TfkwParams",
    "UrbcParams",
    "all_builtin_strategies",
    "builtin_strategy",
    "gamma_star",
    "moe_bound",
    "play_leaky",
    "prepare_coset_state",
    "protocol_bounds",
    "qecm_experiment",
    "riqkd_experiment",
    "run_qecm_id",
    "run_riqkd",
    "run_tfkw",
    "run_urbc",
    "sample_subspace",
    "tfkw_experiment",
    "urbc_experiment",
    "__version__",
]
