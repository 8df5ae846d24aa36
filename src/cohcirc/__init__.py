"""Linear-optical circuit synthesis and coherent-state amplitude propagation.

The package turns unitary or contraction maps on coherent-state
amplitude vectors into beamsplitter/phase-shifter circuits, propagates
starred amplitudes through them, models threshold photodetection, and
implements three worked protocols: phase-state generation, restorable
database search, and Bell-cat feasibility checking.
"""

from .detection import ClickRecord, click_probability, sample_clicks
from .elements import (
    Beamsplitter,
    OpticalElement,
    PhaseShifter,
    beamsplitter_matrix,
    phaseshifter_factor,
)
from .engine import (
    apply_circuit,
    apply_matrix,
    mean_photon_number,
    pad_vacuum,
)
from .errors import ContractionError, DimensionError, SynthesisError
from .linalg import is_unitary, random_unitary, spectral_norm
from .protocols import (
    BellcatQuery,
    BellcatResult,
    SearchBatch,
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
    Circuit,
    DilationPorts,
    compile_circuit,
    dilate,
    reck_decompose,
)

__all__ = [
    "Beamsplitter",
    "BellcatQuery",
    "BellcatResult",
    "Circuit",
    "ClickRecord",
    "ContractionError",
    "DilationPorts",
    "DimensionError",
    "OpticalElement",
    "PhaseShifter",
    "SearchBatch",
    "SearchOutcome",
    "SearchSpec",
    "SynthesisError",
    "analytic_success_probability",
    "apply_circuit",
    "apply_matrix",
    "attenuation_ladder",
    "beamsplitter_matrix",
    "bellcat_feasibility",
    "click_probability",
    "comparison_map",
    "compile_circuit",
    "dft_matrix",
    "dilate",
    "generate_phase_states",
    "is_unitary",
    "max_comparison_scale",
    "mean_photon_number",
    "pad_vacuum",
    "phaseshifter_factor",
    "random_unitary",
    "reck_decompose",
    "restore",
    "run_search",
    "sample_clicks",
    "search_circuit",
    "search_unitary_explicit",
    "spectral_norm",
    "success_probability",
]

__version__ = "0.1.0"
