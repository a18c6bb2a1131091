"""covcat: covariant channels, catalysis verification and reference-frame bounds.

The package is organised in layers: :mod:`covcat.linalg` (dense complex
linear algebra and state metrics), :mod:`covcat.symmetry` (generator lists,
finite groups, representations), :mod:`covcat.channels` and
:mod:`covcat.diamond` (Kraus/Choi machinery and the certified diamond-norm
solver), :mod:`covcat.words` (trace fingerprints and the simultaneous-unitary
solver), and the two pipelines :mod:`covcat.catalysis` and
:mod:`covcat.refframe`. The ``covcat`` command-line tool fronts the pipelines
for batch use.
"""

__version__ = "0.1.0"

from .linalg import (
    fidelity,
    hermitian_power,
    partial_trace,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .symmetry import (
    FiniteGroup,
    FiniteGroupRep,
    is_symmetric_state,
    left_regular_representation,
    standard_representation,
)
from .channels import (
    Channel,
    induced_channel,
    is_covariant,
)
from .diamond import DiamondResult, diamond_distance, unitary_diamond_distance
from .words import (
    Word,
    find_simultaneous_unitary,
    fractional_word_trace,
    parse_word,
    wiegmann_equivalent,
    word_trace,
)
from .catalysis import (
    CatalysisScenario,
    correlation_balance,
    find_intertwiner,
    generate_admissible_scenario,
    rank_condition_counterexample,
    regular_rep_channel,
    state_swap_channel,
    verify_catalysis,
    verify_scenario,
)
from .refframe import (
    FrameScenario,
    catalytic_channel,
    degradation_sweep,
    phase_reference_scenario,
    recovery_channel,
    verify_recovery,
)

__all__ = [name for name in dir() if not name.startswith("_")]
