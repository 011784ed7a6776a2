"""Outage-constrained power loading for the MU-MISO downlink under Gaussian
channel-estimate uncertainty."""

from .model import (
    BeamformerMatrix,
    Diverged,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    SingularChannel,
    build_outage_form,
    build_pcsi_directions,
    build_rci,
    build_zf,
    complex_normal,
    db_to_linear,
    draw_estimate,
    generate_rayleigh_channels,
    init_powers_pcsi,
    mc_probability,
    sinr,
    uplink_error_variance,
)
from .quadform import (
    ProbabilityEstimate,
    ToleranceNotMet,
    cdf_quadrature,
    outage_probability,
)
from .descent import (
    DescentConfig,
    OutageOracle,
    SolveReport,
    SolveStatus,
    solve_general,
)
from .zf import (
    ApproximationInapplicable,
    DegenerateSpectrum,
    SurrogateOracle,
    residue_probability,
    residue_spectrum,
    solve_zf_coord_descent,
    solve_zf_coord_update,
)
from .bench import (
    EmptyIntersection,
    ExperimentConfig,
    METHODS,
    SummaryRow,
    TrialRecord,
    aggregate,
    export_records,
    export_summary,
    read_records,
    run_sweep,
)

__version__ = "0.1.0"
