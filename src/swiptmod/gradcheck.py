"""Central finite-difference verification of the full-chain gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ROLE_MISC, sample_noise, substream
from .harvester import ModelAParams, ModelBParams
from .nn import NetworkParams, encoder_table, init_params, mlp_forward, softmax
from .trainer import network_cost
from .transceiver import normalize_power

STEP = 1e-5
TOL = 1e-6
LAMBDAS = (0.0, 1e-4, 1e-2)

# Finite differences are only valid away from the ReLU kinks and the clamp
# thresholds; configurations violating these margins are redrawn.
RELU_MARGIN = 1e-3
PROB_MARGIN = 1e-6
PDEL_MARGIN = 1e-10


@dataclass
class ConfigReport:
    model: str
    lam: float
    m: int
    blocks: dict[str, float]   # parameter block name -> its max rel err

    @property
    def max_rel_err(self) -> float:
        return max(self.blocks.values())


@dataclass
class GradcheckReport:
    configs: list[ConfigReport]
    tol: float

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.configs)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def worst_blocks(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for cfg in self.configs:
            for name, err in cfg.blocks.items():
                worst[name] = max(worst.get(name, 0.0), err)
        return worst


# parameter block names, in params.views() order
BLOCK_NAMES = ("enc0.W", "enc0.b", "enc1.W", "enc1.b",
               "dec0.W", "dec0.b", "dec1.W", "dec1.b")


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray,
                floor: float) -> np.ndarray:
    # Components below `floor` are dominated by the finite-difference roundoff
    # resolution eps*|cost|/(2*step) and cannot be resolved to the relative
    # tolerance; the floor folds them into an absolute check at that scale.
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def _denominator_floor(cost: float) -> float:
    eps = np.finfo(float).eps
    return eps * (1.0 + abs(cost)) / (STEP * TOL)

def _draw_case(rng, case_index):
    lam = LAMBDAS[case_index % len(LAMBDAS)]
    if (case_index // len(LAMBDAS)) % 2 == 0:
        model = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)
        p_a = float(rng.uniform(0.05, 0.2))
    else:
        # near the sigmoid knee: the power path is active but the curvature
        # stays low enough for the fixed finite-difference step
        model = ModelBParams(ls=0.02, a=6400.0, b=0.003)
        p_a = float(rng.uniform(0.003, 0.006))
    m = int(rng.choice([4, 8]))
    return model, p_a, lam, m


def _margins(params: NetworkParams, msgs: np.ndarray, noise: np.ndarray,
             p_a: float) -> tuple[float, float]:
    """Smallest |ReLU pre-activation| and smallest picked probability of one step.

    One forward pass as in network_cost; encoder_table and mlp_forward keep
    only the ReLU outputs, so each net's hidden pre-activation is recomputed
    from its weights: W1 + b1[:, None] for the encoder's one-hot messages,
    W1 @ y + b1[:, None] for the decoder's input. The encoder's counts only
    for messages present in the batch. The linear outputs (the encoder's
    points, the logits) have no kink and do not count.
    """
    enc, dec = params.encoder, params.decoder
    u, _ = encoder_table(enc)
    x, _, _, _, counts = normalize_power(u, msgs, p_a)
    y = x[:, msgs] + noise.T
    logits, _ = mlp_forward(dec, y)
    probs = softmax(logits)
    hidden_e = enc[0] + enc[1][:, None]
    hidden_d = dec[0] @ y + dec[1][:, None]
    relu = min(float(np.min(np.abs(hidden_e[:, counts > 0]))),
               float(np.min(np.abs(hidden_d))))
    return relu, float(probs[msgs, np.arange(msgs.size)].min())


def check_one(model, p_a, lam, m, seed) -> dict[str, float] | None:
    """FD-vs-analytic comparison for one random configuration.

    Returns None when the drawn point sits too close to a ReLU kink or a clamp
    threshold for finite differences to be meaningful.
    """
    batch = 8
    params = init_params(m, seed)
    rng = substream(seed, ROLE_MISC)
    msgs = rng.integers(0, m, size=batch)
    noise = sample_noise(batch, p_a / 50.0, rng)

    cost, info, grads = network_cost(params, msgs, noise, p_a, lam, model)
    relu_margin, min_prob = _margins(params, msgs, noise, p_a)
    if (relu_margin < RELU_MARGIN
            or min_prob < PROB_MARGIN
            or info["p_del"] < PDEL_MARGIN
            or info["degenerate"]):
        return None

    flat = params.flat
    numeric = np.empty_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + STEP
        up, _, _ = network_cost(params, msgs, noise, p_a, lam, model,
                                want_grads=False)
        flat[j] = orig - STEP
        dn, _, _ = network_cost(params, msgs, noise, p_a, lam, model,
                                want_grads=False)
        flat[j] = orig
        numeric[j] = (up - dn) / (2.0 * STEP)
    errors = _rel_errors(grads, numeric, _denominator_floor(cost))
    return {name: float(err.max())
            for name, err in zip(BLOCK_NAMES, params.views(errors))}


def run_gradcheck(num_configs: int = 20, seed: int = 0) -> GradcheckReport:
    """FD comparison over random configurations covering both harvester
    models, the normalization layer and lambda in {0, 1e-4, 1e-2}."""
    rng = substream(seed, ROLE_MISC, 0)
    reports = []
    attempt = 0
    case = 0
    while len(reports) < num_configs:
        model, p_a, lam, m = _draw_case(rng, case)
        blocks = check_one(model, p_a, lam, m, seed=int(rng.integers(0, 2 ** 31)))
        attempt += 1
        if attempt > 20 * num_configs:
            raise RuntimeError("could not draw enough kink-free configurations")
        if blocks is None:
            continue
        reports.append(ConfigReport(
            model=type(model).__name__.replace("Params", ""),
            lam=lam, m=m, blocks=blocks))
        case += 1
    return GradcheckReport(configs=reports, tol=TOL)
