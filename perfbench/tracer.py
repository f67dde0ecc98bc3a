"""Outside-in per-layer tracer for the benchmark's traced run.

The tracer wraps the public entry points of each simulator layer (listed
in :data:`POINTS`) by patching their class or module attributes, so it
must be installed before any platform or offloader is built:
``SSDOffloader.__init__`` binds ``collect``, ``choose`` and
``transform`` once per run.  Each call of a wrapped function records one
span -- point, start, end and the index of the enclosing span -- in flat
in-memory arrays.  A layer's self time is its spans' durations minus the
part covered by their child spans; everything in the traced wall-clock
that no span covers is reported as unattributed.

Counters are taken at the same boundaries (a wrapped call's arguments and
return value), so every waste ratio is measured where the waste happens.
:meth:`Tracer.uninstall` puts every original attribute back, and
:func:`snapshot` lets a caller prove that it did.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Counter update run after a wrapped call returns:
#: ``tally(counters, args, result)``.
Tally = Callable[[Dict[str, float], tuple, object], None]


def _count_actions(counters, args, result) -> None:
    counters["coherence.sync_actions"] += len(result)


def _count_members(counters, args, result) -> None:
    counters["features.batch_members"] += len(args[1])


def _count_hit(counters, args, result) -> None:
    counters["cache.hits"] += result is not None


def _count_requests(counters, args, result) -> None:
    counters["serve.requests"] += len(result)


def _count_shed(counters, args, result) -> None:
    counters["serve.shed"] += result.rejected


def _count_movement(counters, args, result) -> None:
    # Read once per run, at the runtime boundary, from the public
    # SSDPlatform.movement stats of the platform the run used.
    movement = args[0].platform.movement
    counters["sim.internal_pages"] += movement.internal_pages
    counters["sim.host_pages"] += movement.host_pages
    counters["sim.writeback_pages"] += movement.writeback_pages


#: (layer, module, owner, attributes, tally).  ``owner`` is a class name,
#: a class name ending in ``+`` (that class and every subclass defining
#: the attribute itself), or ``None`` for a module-level function.
POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...],
                    Optional[Tally]], ...] = (
    ("compiler", "repro.workloads.base", "Workload+", ("vector_program",),
     None),
    ("platform.build", "repro.core.platform", "SSDPlatform", ("__init__",),
     None),
    ("lifetime.aging", "repro.core.platform", None, ("apply_drive_age",),
     None),
    ("lifetime.pulse", "repro.ssd.lifetime.engine", "BackgroundFlashEngine",
     ("pulse",), None),
    ("runtime", "repro.core.runtime", "ConduitRuntime", ("execute",),
     _count_movement),
    ("runtime", "repro.core.runtime", "HostRuntime", ("execute",),
     _count_movement),
    ("offloader", "repro.core.offload.offloader", "SSDOffloader",
     ("offload", "offload_member", "begin_wave"), None),
    ("features", "repro.core.offload.features", "FeatureCollector",
     ("collect",), None),
    ("features", "repro.core.offload.features", "FeatureCollector",
     ("collect_batch",), _count_members),
    ("policies", "repro.core.offload.policies", "OffloadingPolicy+",
     ("choose", "choose_packed"), None),
    ("policies", "repro.core.offload.cost_model", "CostFunction",
     ("select", "select_batch"), None),
    ("transform", "repro.core.offload.transform", "InstructionTransformer",
     ("transform",), None),
    ("movement", "repro.core.platform", "SSDPlatform",
     ("ensure_runs_at", "ensure_pages_at", "mark_produced_run",
      "mark_produced"), None),
    ("coherence", "repro.core.coherence", "CoherenceDirectory",
     ("on_read_run", "on_write_run"), _count_actions),
    ("queues", "repro.ssd.queues", "ExecutionQueue", ("enqueue", "reserve"),
     None),
    ("queues", "repro.core.backends", "ComputeBackend+", ("execute",), None),
    ("runner", "repro.experiments.runner", "ExperimentRunner", ("sweep",),
     None),
    ("cache.load", "repro.experiments.runner", "SweepCache", ("load",),
     _count_hit),
    ("cache.store", "repro.experiments.runner", "SweepCache", ("store",),
     None),
    ("serve", "repro.serve.experiment", None, ("simulate_modes",), None),
    ("serve", "repro.serve.fleet", "FleetSimulator", ("simulate",),
     _count_shed),
    ("serve", "repro.serve.fleet", None, ("generate_requests",),
     _count_requests),
)

def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def resolve_points() -> List[Tuple[str, object, str, Optional[Tally]]]:
    """Every (layer, owner object, attribute, tally) the tracer patches."""
    importlib.import_module("repro.experiments")  # registers every module
    resolved = []
    for layer, module_name, owner, attributes, tally in POINTS:
        module = importlib.import_module(module_name)
        if owner is None:
            owners: List[object] = [module]
        elif owner.endswith("+"):
            owners = _subclasses(getattr(module, owner[:-1]))
        else:
            owners = [getattr(module, owner)]
        for target in owners:
            for attribute in attributes:
                if attribute in vars(target):
                    resolved.append((layer, target, attribute, tally))
    return resolved


def snapshot() -> Dict[Tuple[int, str], int]:
    """Identity of every attribute the tracer patches, keyed by owner."""
    return {(id(target), attribute): id(vars(target)[attribute])
            for _, target, attribute, _ in resolve_points()}


class Tracer:
    """Span recorder over the patched layer entry points."""

    def __init__(self) -> None:
        self.point_names: List[str] = []
        self.point_layers: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.point_ids = array("i")
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    # -- Patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, target, attribute, tally in resolve_points():
            original = vars(target)[attribute]
            name = f"{target.__name__}.{attribute}"
            if name in self.point_names:
                name = f"{target.__module__}.{name}"
            self.point_names.append(name)
            self.point_layers.append(layer)
            wrapper = self._wrap(len(self.point_names) - 1, original, tally)
            self._saved.append((target, attribute, original))
            setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    def _wrap(self, point_id: int, function, tally: Optional[Tally]):
        starts, ends = self.starts, self.ends
        parents, point_ids = self.parents, self.point_ids
        stack, counters = self._stack, self.counters
        clock = perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            point_ids.append(point_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tally(counters, args, result)
            return result
        return traced

    # -- Reporting ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span (and the point names) as a compressed .npz."""
        np.savez_compressed(
            path, start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            point=np.frombuffer(self.point_ids, dtype=np.int32),
            point_names=np.array(self.point_names),
            point_layers=np.array(self.point_layers))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-point self time and call count, plus nesting counts.

        Returns ``{"self_s": {point: s}, "calls": {point: n},
        "nested": {(child, parent): n}}`` where ``nested`` counts calls
        of one point made directly inside another.
        """
        count = len(self.starts)
        points = len(self.point_names)
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        point = np.frombuffer(self.point_ids, dtype=np.int32)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=count)
        own = duration - covered
        self_s = np.bincount(point, weights=own, minlength=points)
        calls = np.bincount(point, minlength=points)
        pairs = point[child].astype(np.int64) * points + point[parent[child]]
        nested = np.bincount(pairs, minlength=points * points)
        names = self.point_names
        return {
            "self_s": {names[i]: float(self_s[i]) for i in range(points)},
            "calls": {names[i]: int(calls[i]) for i in range(points)},
            "nested": {(names[i // points], names[i % points]): int(n)
                       for i, n in enumerate(nested) if n},
        }
