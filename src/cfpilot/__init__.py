"""Link-level Monte-Carlo simulator for uplink pilot-based channel estimation
in user-centric cell-free MIMO with asynchronous reception."""

from .airframe import (
    REGIME_UPG,
    REGIME_UPNG,
    ReceivedFrame,
    read_frame_dump,
    synthesize_frame,
    write_frame_dump,
)
from .analytics import (
    RateReport,
    conjugate_bf_rate,
    crosscorr_comparison,
    find_crossover,
    interference_profile,
    nmse_aggregate,
    overhead_factor,
)
from .channel import (
    ChannelMatrixSet,
    LinkGains,
    dbm_to_watts,
    draw_channels,
    draw_link_gains,
    path_loss,
    sample_fading,
    sample_shadowing,
)
from .estimator import LinkEstimates, estimate_trial_links
from .geometry import (
    NetworkRealization,
    PlacementError,
    SimArea,
    delay_spread_min_extension,
    discretize_delay,
    sample_topology,
    synchronize,
    topology_from_positions,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    build_config,
    dump_frame,
    parse_config_file,
    run_sweep,
    run_trial,
)
from .pilots import (
    MFSequence,
    PilotBook,
    SCHEME_DFT,
    SCHEME_DFT_EXT,
    SCHEME_RANDOM,
    dft_sequence,
    make_mf_sequence,
    make_pilot_book,
)

__version__ = "0.1.0"
