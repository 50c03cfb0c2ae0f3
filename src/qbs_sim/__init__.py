"""Exact two-photon state-vector simulator for a Mach-Zehnder interferometer
whose output beam-splitter is entangled with a second (corroborative) photon,
plus a Monte Carlo coincidence-counting layer and Bell-parameter analysis."""

from .states import (
    H,
    V,
    Mode,
    MixedState,
    TwoPhotonState,
    fidelity,
    make_state,
)
from .elements import (
    OpticalElement,
    apply,
    beam_splitter_50_50,
    check_unitary,
    pbs_rotated,
    pdbs,
    pdbs_composite,
    phase_shifter,
    polarization_rotator,
)
from .experiment import (
    BASIS_DA,
    BASIS_HV,
    ExperimentSettings,
    bell_state,
    build_qdc_state,
    category_probability,
    closed_form_ia,
    joint_probabilities,
    joint_probability,
    mixture_state,
    surface,
)
from .montecarlo import (
    CountTable,
    DetectionModel,
    estimate,
    run,
    run_grid,
    sample_shot,
    window_probabilities,
)
from .analysis import (
    SpacetimeEvent,
    Visibility,
    bell_parameter,
    classical_bound_violation,
    fit_visibility,
    is_spacelike,
    propagation_delay,
    surface_from_counts,
)

__version__ = "0.1.0"
