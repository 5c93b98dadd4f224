"""Span tracing around the package's layer boundaries, from outside the package.

A traced round swaps each public function listed in ``BOUNDARIES`` for a
wrapper at the place where its caller looks it up (a module global or a
class attribute), records one span per call, and restores the originals
afterwards.  Spans live in memory as ``[name, start, end, parent, ok]`` and
are written out once, when the run ends.  The layer of a span is the part of
its name before the first dot; a span's self time is its duration less the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import deniable_fit
from deniable_fit import cli, deniability, norms, training
from deniable_fit.deniability import DenialCertificate
from deniable_fit.models import Dataset
from deniable_fit.training import LossSpec

LAYERS = ("cli", "deniability", "training", "models", "norms", "linalg")
ROOT = "op"   # the span the runner opens around each operation


def _count_iterations(tracer: "Tracer", fitted) -> None:
    tracer.nm_iterations += fitted.iterations


# (owner, attribute, span name, hook on the returned value)
BOUNDARIES = (
    (deniable_fit, "run_denial_trial", "deniability.run_denial_trial", None),
    (cli, "main", "cli.main", None),
    (cli, "craft_denial", "deniability.craft_denial", None),
    (cli, "verify_denial", "deniability.verify_denial", None),
    (deniability, "craft_denial", "deniability.craft_denial", None),
    (deniability, "verify_denial", "deniability.verify_denial", None),
    (DenialCertificate, "to_json", "deniability.cert_write", None),
    (DenialCertificate, "from_json", "deniability.cert_load", None),
    (Dataset, "from_csv", "models.csv_read", None),
    (deniability, "residuals", "models.residuals", None),
    (training, "residuals", "models.residuals", None),
    (deniability, "jacobian", "models.jacobian", None),
    (deniability, "rank_condition", "linalg.rank_condition", None),
    (deniability, "make_crafted_norm", "norms.make_crafted_norm", None),
    (norms, "nullspace_projector", "linalg.nullspace_projector", None),
    (deniability, "fit", "training.fit", _count_iterations),
    (LossSpec, "evaluate", "norms.loss_evaluate", None),
)


class Tracer:
    """Records nested spans of one thread while its wrappers are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.nm_iterations = 0
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = True
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable) -> Callable:
        """``fn`` wrapped in the span that stands for one whole operation."""
        return self.wrap(ROOT, fn)

    def install(self) -> None:
        for owner, attr, name, hook in BOUNDARIES:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                new = self.wrap(name, raw, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tok\n")
            for i, (name, start, end, parent, ok) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{int(ok)}\n")


def layer_metrics(tracer: Tracer, cert_bytes: float) -> Dict[str, float]:
    """Per-operation means of the per-layer metrics over the traced spans.

    ``cert_bytes`` is the total size of the certificate files the traced
    operations wrote.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    fit_child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "training.fit":
                fit_child_time[parent] += end - start

    self_time = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    successes = defaultdict(int)
    integrity = 0.0
    objective_evals = 0
    ops = 0
    for i, (name, start, end, parent, ok) in enumerate(spans):
        duration = end - start
        if name == ROOT:
            ops += 1
            total["op"] += duration
            self_time["op"] += duration - child_time[i]
            continue
        self_time[name.split(".", 1)[0]] += duration - child_time[i]
        total[name] += duration
        calls[name] += 1
        successes[name] += int(ok)
        if name == "deniability.verify_denial":
            integrity += duration - fit_child_time[i]
        if name == "models.residuals" and parent >= 0 and spans[parent][0] == "training.fit":
            objective_evals += 1
        if name == "norms.make_crafted_norm":
            self_time["make_norm"] += duration - child_time[i]

    per_op = 1.0 / max(ops, 1)
    crafted = successes["deniability.craft_denial"]
    metrics = {f"{layer}.self_s": self_time[layer] * per_op for layer in LAYERS}
    metrics.update({
        "deniability.craft_s": total["deniability.craft_denial"] * per_op,
        "deniability.cert_write_s": total["deniability.cert_write"] * per_op,
        "deniability.cert_bytes": cert_bytes * per_op,
        "deniability.cert_load_s": total["deniability.cert_load"] * per_op,
        "deniability.integrity_s": integrity * per_op,
        "deniability.craft_attempts": calls["deniability.craft_denial"] / crafted if crafted else 0.0,
        "training.fit_calls": calls["training.fit"] * per_op,
        "training.fit_s": total["training.fit"] * per_op,
        "training.nm_iterations": tracer.nm_iterations * per_op,
        "training.objective_evals": objective_evals * per_op,
        "models.residuals_calls": calls["models.residuals"] * per_op,
        "models.residuals_s": total["models.residuals"] * per_op,
        "models.jacobian_s": total["models.jacobian"] * per_op,
        "models.csv_read_s": total["models.csv_read"] * per_op,
        "norms.loss_evals": calls["norms.loss_evaluate"] * per_op,
        "norms.loss_s": total["norms.loss_evaluate"] * per_op,
        "norms.make_norm_s": self_time["make_norm"] * per_op,
        "linalg.projector_s": total["linalg.nullspace_projector"] * per_op,
        "linalg.rank_s": total["linalg.rank_condition"] * per_op,
        "trace.op_s": total["op"] * per_op,
        "trace.unattributed_s": self_time["op"] * per_op,
    })
    return metrics
