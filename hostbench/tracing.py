"""Layer timing from outside the program.

:class:`LayerTracer` replaces a layer's public function with a timing
wrapper for the length of a ``with`` block and puts the original back on
exit.  Each wrapper records its wall time, and the part of it not spent
inside another wrapped call (its self time), so the timed layers of one
root call add up to that call exactly.  Functions are patched where the
caller looks them up: ``repro.core.hhcpu`` imports ``run_product`` and
friends by name, so that module's attribute is the one replaced.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.core.hhcpu as hhcpu
import repro.jobs.runner as runner
import repro.resilience.executor as resilient

#: (owner, attribute, layer); a root layer is "the traced multiply"
LAYERS = (
    (hhcpu.HHCPU, "multiply", "root"),
    (resilient.ResilientExecutor, "execute", "root"),
    (hhcpu, "ensure_canonical", "formats.canonical"),
    (runner, "ensure_canonical", "formats.canonical"),
    (hhcpu, "select_threshold", "core.phase1_sweep"),
    (hhcpu, "partition_rows", "hetero.partition"),
    (runner, "partition_rows", "hetero.partition"),
    (hhcpu.HHCPU, "make_contexts", "costmodel.contexts"),
    (hhcpu, "run_product_resilient", "kernels.phase2"),
    (hhcpu.HHCPU, "run_phase3", "hetero.scheduler"),
    (hhcpu, "run_product", "kernels.phase3"),
    (hhcpu, "merge_tuples", "kernels.merge"),
    (runner, "write_checkpoint", "jobs.checkpoint"),
    (resilient, "verify_result", "resilience.verify"),
)


class LayerTracer:
    """Accumulates per-layer wall, self time, call counts and merge
    sizes while active; ``root_samples`` holds each root call's wall."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_samples: list[float] = []
        self.tuples_in = 0
        self.masters = 0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += wall
                self.total[layer] += wall
                self.self_time[layer] += wall - inner
                self.calls[layer] += 1
                if layer == "root":
                    self.root_samples.append(wall)
            if layer == "kernels.merge":
                self.tuples_in += out.stats.tuples_in
                self.masters += out.stats.masters
            return out

        return timed

    def __enter__(self) -> "LayerTracer":
        for owner, attr, layer in LAYERS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_seconds(self, per: int) -> dict[str, float]:
        """Per-operation layer times (``per`` timed operations ran).

        ``core.unattributed_s`` is the roots' self time, so the eleven
        times add up to the roots' total wall.
        """
        def avg(value: float) -> float:
            return value / per

        return {
            "formats.canonical_s": avg(self.total["formats.canonical"]),
            "core.phase1_sweep_s": avg(self.total["core.phase1_sweep"]),
            "hetero.partition_s": avg(self.total["hetero.partition"]),
            "costmodel.contexts_s": avg(self.total["costmodel.contexts"]),
            "kernels.phase2_s": avg(self.total["kernels.phase2"]),
            "kernels.phase3_s": avg(self.total["kernels.phase3"]),
            "hetero.scheduler_self_s": avg(self.self_time["hetero.scheduler"]),
            "kernels.merge_s": avg(self.total["kernels.merge"]),
            "jobs.checkpoint_s": avg(self.total["jobs.checkpoint"]),
            "resilience.verify_s": avg(self.total["resilience.verify"]),
            "core.unattributed_s": avg(self.self_time["root"]),
        }

    def counts(self, per: int) -> dict[str, float]:
        """Per-operation work counts and the merge rate."""
        merge_s = self.total["kernels.merge"]
        return {
            "kernels.calls": (self.calls["kernels.phase2"] + self.calls["kernels.phase3"]) / per,
            "hetero.units": self.calls["kernels.phase3"] / per,
            "kernels.tuples_in": self.tuples_in / per,
            "kernels.masters": self.masters / per,
            "kernels.merge_mtuples_per_s": self.tuples_in / merge_s / 1e6 if merge_s else 0.0,
            "jobs.checkpoints": self.calls["jobs.checkpoint"] / per,
        }
