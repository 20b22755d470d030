"""Spans around swiptmod's public functions, recorded from outside the package.

A function is wrapped at the module attribute its caller looks it up under
(``swiptmod.trainer.adam_step``, not ``swiptmod.nn.adam_step``), because
``from .nn import adam_step`` binds a second name that patching ``nn`` would
miss. The span name is the function's home module; the site is the module
whose attribute was wrapped, so the same function can be told apart by caller
(``nn.mlp_forward`` inside a training step versus inside ``decode``).
"""

from __future__ import annotations

import importlib
import math
import time

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes


def _restart_failed(rec) -> bool:
    return bool(rec.failed or not math.isfinite(rec.final_cost))


# (module, attribute, span name, note on the return value or None).
# Always wrapped, also with tracing off: one call per restart or eval call,
# which gives the op counts and the time of the first training or eval call.
OPS_TARGETS = [
    ("swiptmod.trainer", "train_run", "trainer.train_run", _restart_failed),
    ("swiptmod.evaluator", "estimate_ser", "evaluator.estimate_ser", None),
]

# Wrapped only in a traced run: the per-step and per-call layers.
LAYER_TARGETS = OPS_TARGETS + [
    ("swiptmod.trainer", "network_cost", "trainer.network_cost", None),
    ("swiptmod.trainer", "pdel_with_grads", "harvester.pdel_with_grads", None),
    ("swiptmod.trainer", "pdel_exact", "harvester.pdel_exact", None),
    ("swiptmod.trainer", "mlp_forward", "nn.mlp_forward", None),
    ("swiptmod.trainer", "mlp_backward", "nn.mlp_backward", None),
    ("swiptmod.trainer", "softmax", "nn.softmax", None),
    ("swiptmod.trainer", "adam_step", "nn.adam_step", None),
    ("swiptmod.trainer", "init_params", "nn.init_params", None),
    ("swiptmod.trainer", "sample_noise", "channel.sample_noise", None),
    ("swiptmod.trainer", "export_constellation", "transceiver.export_constellation", None),
    ("swiptmod.evaluator", "decode", "transceiver.decode", None),
    ("swiptmod.evaluator", "sample_noise", "channel.sample_noise", None),
    ("swiptmod.transceiver", "mlp_forward", "nn.mlp_forward", None),
    ("swiptmod.transceiver", "export_constellation", "transceiver.export_constellation", None),
    ("swiptmod.transceiver", "write_constellation_csv", "transceiver.write_constellation_csv", None),
    ("swiptmod.nn", "softmax", "nn.softmax", None),
    ("swiptmod.nn", "save_checkpoint", "nn.save_checkpoint", None),
    ("swiptmod.harvester", "pdel_exact", "harvester.pdel_exact", None),
    ("swiptmod.svgplot", "write_constellation_svg", "svgplot.write_constellation_svg", None),
    ("swiptmod.config", "resolve", "config.resolve", None),
    ("swiptmod.cli", "save_checkpoint", "nn.save_checkpoint", None),
    ("swiptmod.cli", "write_constellation_csv", "transceiver.write_constellation_csv", None),
    ("swiptmod.cli", "write_constellation_svg", "svgplot.write_constellation_svg", None),
]


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "note")

    def __init__(self, name, site, start, end=math.nan, parent=-1, note=None):
        self.name, self.site = name, site
        self.start, self.end = start, end
        self.parent, self.note = parent, note


class Tracer:
    """Context manager that wraps the targets and restores them on exit.

    Spans are kept in memory; ``parent`` is the index of the enclosing span.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr, name, note in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                site = module_name.rsplit(".", 1)[-1]
                setattr(module, attr, self._wrap(original, name, site, note))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, site, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, site, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per ``name@site``: [calls, total seconds, self seconds, notes that are true]."""
    table: dict[str, list] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(f"{span.name}@{span.site}", [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += self_s
        row[3] += bool(span.note)
    return table
