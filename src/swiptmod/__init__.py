"""Learned modulation design for SWIPT over AWGN with nonlinear harvesters."""

from .channel import substream
from .evaluator import EvalReport, estimate_ser
from .harvester import HarvesterModel, ModelAParams, ModelBParams, pdel_exact
from .nn import (AdamState, NetworkParams, adam_step, init_params,
                 load_checkpoint, save_checkpoint, softmax)
from .trainer import (Restart, RunRecord, TrainConfig, lambda_sweep,
                      multi_restart, network_cost, total_cost, train_run)
from .transceiver import (Constellation, decode, export_constellation,
                          normalize_power, read_constellation_csv,
                          write_constellation_csv)

__version__ = "0.1.0"
