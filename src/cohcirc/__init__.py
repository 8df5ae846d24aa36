"""Linear-optical circuit synthesis and coherent-state amplitude propagation.

The package turns unitary or contraction maps on coherent-state
amplitude vectors into beamsplitter/phase-shifter circuits, propagates
starred amplitudes through them, models threshold photodetection, and
implements three worked protocols: phase-state generation, restorable
database search, and Bell-cat feasibility checking.
"""

from types import ModuleType as _ModuleType

from .detection import click_probability, sample_clicks
from .errors import ContractionError, DimensionError, SynthesisError
from .linalg import (
    apply_matrix,
    is_unitary,
    mean_photon_number,
    pad_vacuum,
    random_unitary,
    spectral_norm,
)
from .protocols import (
    BellcatResult,
    SearchOutcome,
    SearchSpec,
    analytic_success_probability,
    attenuation_ladder,
    bellcat_feasibility,
    comparison_map,
    dft_matrix,
    generate_phase_states,
    max_comparison_scale,
    restore,
    run_search,
    search_circuit,
    search_unitary_explicit,
    success_probability,
)
from .synthesis import (
    Beamsplitter,
    Circuit,
    PhaseShifter,
    apply_circuit,
    beamsplitter_matrix,
    compile_circuit,
    dilate,
    phaseshifter_factor,
    reck_decompose,
)

# The public API is exactly the names imported above.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
