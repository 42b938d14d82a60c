"""Link-level simulator for full-duplex radios with analog-baseband
self-interference cancellation."""

from .cancellation import TrainingModel, run_training, training_model
from .channel import (BasebandChannel, ChannelProfile, band_isolation_db,
                      derive_baseband_channel, load_profile, save_profile,
                      support_length, synthesize_profile)
from .errors import ConfigError, EstimationError, FdsimError, ProfileError
from .harness import (SweepResult, SweepRow, SweepSpec, parse_config,
                      read_results, run_sweep, write_results)
from .link import LinkConfig, LinkReport, ber, ebn0_to_noise_variance, run_trial
from .sigproc import (SrrcFilter, awgn, demodulate_psk,
                      matched_filter_downsample, modulate_psk, pulse_shape,
                      srrc_taps)

__version__ = "0.1.0"
