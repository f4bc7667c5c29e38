"""Link-level Monte-Carlo simulator for uplink pilot-based channel estimation
in user-centric cell-free MIMO with asynchronous reception."""

from .airframe import synthesize_frame
from .analytics import crosscorr_comparison, find_crossover, nmse_aggregate
from .channel import draw_channels, draw_link_gains
from .estimator import estimate_trial_links
from .geometry import SimArea, delay_spread_min_extension, sample_topology
from .pilots import make_mf_sequence, make_pilot_book

__version__ = "0.1.0"
