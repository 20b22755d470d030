"""Golden-output guard: one SHA-256 per named output of training and evaluation.

Each entry hashes the exact bytes of one result (a minibatch cost with its
info and gradient, a checkpoint, a constellation CSV, a record field, an SER
report), so a change meant to keep results bit for bit shows which entries
moved, and a diff of golden.json shows it too. Bits depend on the NumPy build
and the BLAS library, so the file records that stack: on another stack the
test xfails and names the mismatch; on the same stack every entry must match.

A value tier runs on any stack: the cost, P_del and gradient 2-norm of the 30
minibatch costs, stored as floats, must match to a relative REL_TOL.

Regenerate after an intended change with

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from oracles import classical_baseline
from swiptmod.channel import ROLE_MISC, sample_noise, substream
from swiptmod.evaluator import estimate_ser
from swiptmod.harvester import ModelAParams, ModelBParams, pdel_exact
from swiptmod.nn import init_params, save_checkpoint
from swiptmod.trainer import TrainConfig, network_cost, train_run
from swiptmod.transceiver import export_constellation, write_constellation_csv

GOLDEN = Path(__file__).with_name("golden.json")

MODELS = {"A": ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0),
          "B": ModelBParams(ls=0.02, a=6400.0, b=0.003)}
P_A = {"A": 0.1, "B": 0.004}      # where each model's power term is active
LAM = {"A": 1e-3, "B": 1e-4}


def _bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, (bool, str)) or value is None:
        return repr(value).encode()
    return float(value).hex().encode()   # every float64 bit, ints included


def _sha(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(_bytes(v))
        h.update(b"|")
    return h.hexdigest()


def _openblas_core() -> str:
    """The kernel core that NumPy's bundled OpenBLAS chose when it loaded (it
    follows the CPU, or OPENBLAS_CORETYPE), or "unknown" when there is no
    such library or it lacks the symbol."""
    here = Path(np.__file__).parent
    for lib in sorted([*here.parent.glob("numpy.libs/libscipy_openblas*"),
                       *here.glob(".dylibs/libscipy_openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def stack() -> dict:
    """The NumPy build, its BLAS library and core, and the machine the bits
    belong to."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # NumPy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "blas_core": _openblas_core(),
            "machine": platform.machine()}


# The largest relative gap of the value tier between the SkylakeX, Haswell,
# Sandybridge and Prescott OpenBLAS cores (NumPy 2.4.6, x86_64) was 6.8e-16,
# in P_del; the costs matched exactly. The bound leaves room for other NumPy
# builds, while a changed formula moves a value far more.
REL_TOL = 1e-12


def _network_costs():
    """(name, cost, info, grads) of the 30 minibatch costs."""
    for model in ("A", "B"):
        for m in (4, 8, 16):
            for batch in (1, 5, 8, 400, 1600):
                seed = 1000 * m + batch
                params = init_params(m, seed)
                rng = substream(seed, ROLE_MISC)
                msgs = rng.integers(0, m, size=batch)
                noise = sample_noise(batch, P_A[model] / 50.0, rng)
                yield (f"network_cost/{model}/M{m}/B{batch}",
                       *network_cost(params, msgs, noise, P_A[model], LAM[model],
                                     MODELS[model], ws={}))


def _network_cost_entries(out: dict) -> None:
    for name, cost, info, grads in _network_costs():
        out[name] = _sha(cost, *(v for _, v in sorted(info.items())), grads)


def values() -> dict:
    """The value tier: [cost, P_del, gradient 2-norm] by entry name."""
    return {name: [cost, info["p_del"], float(np.linalg.norm(grads))]
            for name, cost, info, grads in _network_costs()}


TRAIN_CASES = {
    "A-M8": (TrainConfig(m=8, p_a=0.001, snr=50.0, harvester=MODELS["A"],
                         epochs=4, restarts=10, minibatch_size=80,
                         train_set_size=800, eval_samples=2000), 1e-7, 11),
    "B-M16": (TrainConfig(m=16, p_a=0.004, snr=50.0, harvester=MODELS["B"],
                          epochs=3, restarts=10, minibatch_size=160,
                          train_set_size=1600, eval_samples=2000), 1e-4, 12),
}


def _train_entries(out: dict, tmp: Path) -> None:
    for name, (cfg, lam, seed) in TRAIN_CASES.items():
        rec = train_run(cfg, lam, seed)
        save_checkpoint(tmp / "checkpoint.bin", rec.params)
        write_constellation_csv(rec.constellation, tmp / "constellation.csv")
        out[f"train_run/{name}/checkpoint.bin"] = _sha(
            (tmp / "checkpoint.bin").read_bytes())
        out[f"train_run/{name}/constellation.csv"] = _sha(
            (tmp / "constellation.csv").read_bytes())
        for f in fields(rec):
            if f.name not in ("constellation", "params"):
                out[f"train_run/{name}/record.{f.name}"] = _sha(getattr(rec, f.name))


def _export_and_ser_entries(out: dict) -> None:
    for m in (8, 16):
        params = init_params(m, 50 + m)
        const = export_constellation(params.encoder, m, 0.001)
        out[f"export_constellation/M{m}"] = _sha(const.points, const.probabilities)
        for model in ("A", "B"):
            out[f"pdel_exact/{model}/M{m}"] = _sha(pdel_exact(const, MODELS[model]))

    decoder = init_params(16, 70).decoder
    decoder[0] *= 400.0   # confident logits at this signal scale
    params = init_params(16, 71)
    for name, const, dec in (
            ("qam16", classical_baseline("QAM", 16, 0.001), decoder),
            ("exported-M16", export_constellation(params.encoder, 16, 0.001),
             params.decoder)):
        for det, d in (("nn", dec), ("ml", None)):
            rep = estimate_ser(const, d, 2e-5, 20_000, seed=72)
            out[f"estimate_ser/{name}/{det}"] = _sha(rep.ser, rep.ser_stderr,
                                                     rep.cross_entropy)


def entries() -> dict:
    out: dict = {}
    _network_cost_entries(out)
    with tempfile.TemporaryDirectory() as tmp:
        _train_entries(out, Path(tmp))
    _export_and_ser_entries(out)
    return out


def test_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    here = stack()
    if golden["stack"] != here:
        pytest.xfail(f"golden.json was made on {golden['stack']}, this is {here}")
    got = entries()
    moved = sorted(k for k, v in golden["entries"].items() if got.get(k) != v)
    unknown = sorted(set(got) - set(golden["entries"]))
    assert not moved and not unknown, (f"moved: {moved}; "
                                       f"not in golden.json: {unknown}")


def test_golden_values():
    # runs on any stack, so a wrong formula fails where the hashes xfail
    golden = json.loads(GOLDEN.read_text())["values"]
    got = values()
    assert got.keys() == golden.keys()
    far = {k: (got[k], v) for k, v in golden.items()
           if not np.allclose(got[k], v, rtol=REL_TOL, atol=0.0)}
    assert not far, f"beyond a relative {REL_TOL:g} (got, golden): {far}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"stack": stack(), "entries": entries(),
                                  "values": values()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
