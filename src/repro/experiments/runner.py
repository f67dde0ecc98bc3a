"""Experiment runner shared by all figure/table harnesses.

Each experiment in the paper's evaluation section (Figs. 4-10, Table 3) is a
sweep of (workload, execution policy) pairs over the same simulated
platform.  This module centralizes:

* the experiment platform configuration (a scaled-down version of Table 2's
  system so sweeps finish in seconds -- the *ratios* between capacities are
  preserved: workload footprints exceed the SSD-DRAM compute window and the
  host page cache, as in the paper, so operands stream from flash);
* construction and caching of the vectorized programs;
* running one (workload, policy) pair on a fresh platform; and
* assembling result grids keyed by workload and policy.

Sweeps are embarrassingly parallel -- every (workload, policy) pair runs on
a fresh platform -- so :meth:`ExperimentRunner.sweep` can shard the pairs
over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* each pair becomes a pickle-able :class:`RunSpec` (workload name, scale,
  policy name, platform configuration) executed by the
  module-level :func:`execute_run_spec` worker;
* shards are submitted and reassembled in deterministic (workload, policy)
  order, so the result grid is bit-identical to a serial sweep and
  independent of worker completion order;
* an optional on-disk cache under :data:`DEFAULT_SWEEP_CACHE_DIR` keyed by
  a stable hash of the :class:`RunSpec` (plus :data:`SWEEP_CACHE_VERSION`)
  lets repeated figure-harness runs skip already-computed pairs.

Worker count resolves as: explicit ``workers`` argument, then the
``REPRO_SWEEP_WORKERS`` environment variable (CI sets ``1`` to force serial
execution), then ``os.cpu_count()``.
"""

from __future__ import annotations

import enum
import gc
import hashlib
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.common import Resource
from repro.core.compiler.ir import VectorProgram
from repro.core.metrics import ExecutionResult, geometric_mean, speedup
from repro.core.offload.policies import OffloadingPolicy, make_policy
from repro.core.platform import (PlatformConfig, SSDPlatform,
                                 backend_roster)
from repro.core.runtime import ConduitRuntime, HostRuntime
from repro.experiments.platforms import (experiment_platform_config,
                                         platform_variant)
from repro.workloads import Workload, default_workloads, workload_by_name

#: Names of the host (OSP) baselines; they run through :class:`HostRuntime`.
HOST_POLICIES = ("CPU", "GPU")

#: All execution policies of Fig. 7 in the paper's plotting order.
FIG7_POLICIES = ("CPU", "GPU", "ISP", "PuD-SSD", "Flash-Cosmos",
                 "Ares-Flash", "BW-Offloading", "DM-Offloading", "Conduit",
                 "Ideal")

#: The prior-work policies of the Fig. 5 motivation study (no Conduit).
FIG5_POLICIES = ("CPU", "GPU", "ISP", "PuD-SSD", "Flash-Cosmos",
                 "Ares-Flash", "BW-Offloading", "DM-Offloading", "Ideal")

#: Environment variable overriding the sweep worker count (``1`` forces
#: serial in-process execution; CI sets this for reproducible timings).
SWEEP_WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable overriding the on-disk sweep-cache directory.
#: An empty value or ``off`` disables the cache.
SWEEP_CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Default location of the on-disk sweep result cache.
DEFAULT_SWEEP_CACHE_DIR = ".sweep_cache"

#: Bump whenever a cached result could differ from a fresh run of its spec
#: (simulation semantics or the canonical config encoding changed).
SWEEP_CACHE_VERSION = 9

#: The workload scale experiments (and the CLI's ``--scale``) default to.
#: The CLI help strings derive from this constant so they can never drift
#: from the behaviour.
DEFAULT_WORKLOAD_SCALE = 0.25


@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment harnesses."""

    workload_scale: float = DEFAULT_WORKLOAD_SCALE
    platform: PlatformConfig = field(
        default_factory=experiment_platform_config)

    def workloads(self) -> List[Workload]:
        return default_workloads(scale=self.workload_scale)


# ------------------------------------------------------------------------
# Run specifications (the parallel unit of work)
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to run one (workload, policy) pair anywhere.

    The spec is a pure-data, pickle-able value: the workload is referenced
    by its registry name plus scale (workload generators are deterministic
    functions of the scale, see :mod:`repro.workloads`), and the platform
    configuration is a frozen dataclass tree.  Two equal specs
    therefore always produce bit-identical :class:`ExecutionResult`\\ s,
    which is what makes both process-pool execution and on-disk caching
    safe.
    """

    workload: str
    scale: float
    policy: str
    platform: PlatformConfig = field(
        default_factory=experiment_platform_config)
    #: Display label of the platform-axis variant this spec belongs to
    #: (see :mod:`repro.experiments.platforms`).  A *label only*: the
    #: semantics live entirely in ``platform``, so the cache key excludes
    #: it and equal configurations share entries across variant names.
    platform_name: str = "default"
    #: The workload's ``cache_identity()``: extra identity beyond the
    #: (name, scale) pair for content-defined workloads -- a trace's
    #: content hash, a zipf stream's generator parameters.  Folded into
    #: :func:`run_spec_key` so re-registering a name with different
    #: content can never be served a stale cache entry, and verified
    #: against the rebuilt workload in :func:`execute_run_spec`.
    workload_params: Tuple[Tuple[str, str], ...] = ()


def _canonical(value: object) -> object:
    """Convert a config value into a JSON-stable representation."""
    if is_dataclass(value) and not isinstance(value, type):
        encoded: Dict[str, object] = {
            "__dataclass__": type(value).__qualname__}
        for spec_field in fields(value):
            encoded[spec_field.name] = _canonical(getattr(value,
                                                          spec_field.name))
        return encoded
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float):
        # repr() keeps full precision; JSON would round-trip anyway, but be
        # explicit so the key is stable across json library versions.
        return repr(value)
    return value


def run_spec_key(spec: RunSpec) -> str:
    """Stable content hash of a :class:`RunSpec` (plus cache version).

    The key covers every code-relevant knob: workload identity and scale,
    policy name, and the full platform configuration tree.  The
    enabled-backend roster is folded in explicitly (on top of the platform
    configuration that implies it), so entries recorded on a
    differently-shaped platform can never be served, even if a future
    roster knob escapes the config tree.  It is what shards the sweep
    deterministically and keys the on-disk cache.
    """
    encoded = _canonical(spec)
    # The variant label is presentation, not semantics: two variants
    # resolving to the same PlatformConfig must share cache entries (and
    # pre-label caches stay valid).  The roster fold below already keys
    # every shape-changing knob.
    encoded.pop("platform_name", None)
    # The decision-engine choice is an implementation detail, not
    # semantics: the opt-in wave-batched engine is bit-exact against the
    # per-instruction engine by construction (pinned by
    # tests/test_batched_offload.py), so both flag states share cache
    # entries.
    platform_encoded = encoded.get("platform")
    if isinstance(platform_encoded, dict):
        platform_encoded.pop("batched_offload", None)
    payload = {"version": SWEEP_CACHE_VERSION, "spec": encoded,
               "backends": list(backend_roster(spec.platform))}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compile_program(workload: Workload) -> VectorProgram:
    program, _ = workload.vector_program()
    return program


#: Per-process compiled-program cache used by the pool workers.  Keyed by
#: (workload name, scale, cache identity); a long-lived worker compiles
#: each workload once even when it executes many policies for it.
_WORKER_PROGRAMS: Dict[Tuple[str, float, Tuple[Tuple[str, str], ...]],
                       VectorProgram] = {}


def _execute(program: VectorProgram, spec: RunSpec) -> ExecutionResult:
    """Run one compiled program under one named policy on a fresh platform.

    Shared by the serial path and the pool workers so both execute exactly
    the same code.  The cycle collector is paused for the duration of one
    run: the simulators allocate millions of short-lived records whose
    lifetimes are reference-counted, so generational scans only add
    pauses; per-run bookkeeping (records, decisions) is acyclic and freed
    normally when the result is consumed.

    A failing run re-raises its own exception (type unchanged) with a note
    naming the spec; notes survive pickling out of a pool worker.
    """
    try:
        platform = SSDPlatform(spec.platform)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if spec.policy in HOST_POLICIES:
                device = (Resource.HOST_CPU if spec.policy == "CPU"
                          else Resource.HOST_GPU)
                return HostRuntime(platform).execute(program, device,
                                                     spec.workload)
            return ConduitRuntime(platform).execute(
                program, make_policy(spec.policy), spec.workload)
        finally:
            if gc_was_enabled:
                gc.enable()
    except Exception as error:
        error.add_note(
            f"while running workload {spec.workload!r} under policy "
            f"{spec.policy!r} on platform {spec.platform_name!r} "
            f"(run spec {run_spec_key(spec)[:12]})")
        raise


def execute_run_spec(spec: RunSpec) -> ExecutionResult:
    """Process-pool worker: materialize and execute one :class:`RunSpec`."""
    cache_key = (spec.workload, spec.scale, spec.workload_params)
    program = _WORKER_PROGRAMS.get(cache_key)
    if program is None:
        workload = workload_by_name(spec.workload, scale=spec.scale)
        identity = workload.cache_identity()
        if identity != spec.workload_params:
            # The registry entry changed between spec construction and
            # execution (a name re-registered with a different trace or
            # parameter set): running it would silently attribute the new
            # content's results to the old spec's cache key.
            raise ValueError(
                f"workload {spec.workload!r} rebuilt with cache identity "
                f"{identity!r}, but this spec was built from "
                f"{spec.workload_params!r}; the registry entry changed "
                "under a running sweep")
        program = _compile_program(workload)
        _WORKER_PROGRAMS[cache_key] = program
    return _execute(program, spec)


def resolve_sweep_workers(workers: Optional[int] = None) -> int:
    """Resolve the sweep worker count.

    Priority: explicit argument, then :data:`SWEEP_WORKERS_ENV`, then
    ``os.cpu_count()``.  The result is always >= 1; ``1`` means serial
    in-process execution (no process pool is created).
    """
    if workers is None:
        env = os.environ.get(SWEEP_WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{SWEEP_WORKERS_ENV} must be an integer, got {env!r}")
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"sweep worker count must be >= 1, got {workers}")
    return workers


def default_sweep_cache_dir() -> Optional[str]:
    """The cache directory figure-harness CLIs use.

    Honors :data:`SWEEP_CACHE_ENV`: unset picks
    :data:`DEFAULT_SWEEP_CACHE_DIR`, an empty value / ``0`` / ``off``
    disables caching, anything else names the directory.
    """
    value = os.environ.get(SWEEP_CACHE_ENV)
    if value is None:
        return DEFAULT_SWEEP_CACHE_DIR
    value = value.strip()
    if value.lower() in ("", "0", "off", "none", "false"):
        return None
    return value


class SweepCache:
    """Pickle-per-result on-disk cache keyed by :func:`run_spec_key`.

    Corrupt, unreadable or version-mismatched entries are treated as
    misses; writes go through a temporary file plus :func:`os.replace` so
    concurrent sweeps never observe a torn entry.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def load(self, spec: RunSpec) -> Optional[ExecutionResult]:
        try:
            with open(self._path(run_spec_key(spec)), "rb") as handle:
                result = pickle.load(handle)
        except (OSError, EOFError, pickle.UnpicklingError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return None
        if not isinstance(result, ExecutionResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, spec: RunSpec, result: ExecutionResult) -> None:
        os.makedirs(self.directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(dir=self.directory,
                                             suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(result, stream,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._path(run_spec_key(spec)))
        except OSError:
            # A failed disk write only loses the cache entry, never the
            # sweep; anything else (e.g. an unpicklable result) is a
            # programming error and propagates after the cleanup below.
            pass
        finally:
            try:
                os.unlink(temp_path)
            except OSError:
                pass  # already renamed into place (or never created)


@dataclass
class SweepStats:
    """Bookkeeping of the last :meth:`ExperimentRunner.sweep` call."""

    pairs: int = 0
    executed: int = 0
    cache_hits: int = 0
    workers: int = 1
    parallel: bool = False
    platforms: int = 1

    def summary(self) -> str:
        """One-line human-readable form (``repro run -v`` prints this)."""
        return (f"pairs={self.pairs} executed={self.executed} "
                f"cache_hits={self.cache_hits} workers={self.workers} "
                f"platforms={self.platforms} "
                f"mode={'parallel' if self.parallel else 'serial'}")


class ExperimentRunner:
    """Runs (workload, policy) pairs and caches vectorized programs."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._programs: Dict[Tuple[str, float, Tuple[Tuple[str, str], ...]],
                             VectorProgram] = {}
        #: Stats of the most recent sweep (pairs, cache hits, workers).
        self.last_sweep_stats = SweepStats()

    # -- Program construction ------------------------------------------------------

    def program_for(self, workload: Workload) -> VectorProgram:
        key = (workload.name, workload.scale, workload.cache_identity())
        if key not in self._programs:
            self._programs[key] = _compile_program(workload)
        return self._programs[key]

    # -- Run specifications --------------------------------------------------------

    def spec_for(self, workload: Workload, policy_name: str,
                 platform: Optional[PlatformConfig] = None,
                 platform_name: str = "default") -> RunSpec:
        """The :class:`RunSpec` describing one (workload, policy) pair.

        ``platform`` overrides the runner's configured platform for
        platform-axis sweeps; ``platform_name`` is the variant's display
        label (excluded from the cache key).
        """
        return RunSpec(workload=workload.name, scale=workload.scale,
                       policy=policy_name,
                       platform=(platform if platform is not None
                                 else self.config.platform),
                       platform_name=platform_name,
                       workload_params=workload.cache_identity())

    # -- Single runs ------------------------------------------------------------------

    def run(self, workload: Workload, policy_name: str) -> ExecutionResult:
        """Run one workload under one policy on a fresh platform."""
        return _execute(self.program_for(workload),
                        self.spec_for(workload, policy_name))

    def run_with_policy(self, workload: Workload,
                        policy: OffloadingPolicy) -> ExecutionResult:
        """Run one workload under an externally constructed policy."""
        program = self.program_for(workload)
        platform = SSDPlatform(self.config.platform)
        return ConduitRuntime(platform).execute(program, policy,
                                                workload.name)

    # -- Sweeps -----------------------------------------------------------------------

    def sweep(self, policies: Sequence[str],
              workloads: Optional[Sequence[Workload]] = None, *,
              platforms: Optional[Sequence[object]] = None,
              parallel: bool = False, workers: Optional[int] = None,
              cache_dir: Optional[str] = None
              ) -> Dict[Tuple, ExecutionResult]:
        """Run the (workload, policy[, platform]) cross-product.

        Without ``platforms`` the grid is keyed by (workload, policy) and
        every pair runs on the runner's configured platform, exactly as
        before the platform axis existed.  With ``platforms`` -- a
        sequence of registered variant names and/or explicit
        ``(name, PlatformConfig)`` pairs, resolved against the runner's
        platform as the base -- the sweep covers the full cross-product
        and the grid is keyed by (workload, policy, platform_name).

        The result grid is always assembled in workload-major,
        policy-then-platform spec order, so serial and parallel sweeps
        return identical dictionaries (same keys, same order,
        bit-identical results).

        :param parallel: shard the units over a process pool.  With one
            resolved worker the sweep stays in-process, exactly like a
            serial sweep.
        :param workers: worker count; ``None`` defers to
            :func:`resolve_sweep_workers` (``REPRO_SWEEP_WORKERS`` env
            override, then ``os.cpu_count()``).
        :param cache_dir: directory of the on-disk result cache; ``None``
            disables caching.  Cache keys cover the resolved platform
            configuration (not the variant label), so the cross-product
            shares entries with single-platform sweeps of the same shape.
        """
        workloads = list(workloads) if workloads is not None else \
            self.config.workloads()
        variants = self._resolve_platforms(platforms)
        keyed_by_platform = platforms is not None
        specs = [self.spec_for(workload, policy_name, platform=config,
                               platform_name=name)
                 for workload in workloads for policy_name in policies
                 for name, config in variants]
        stats = SweepStats(pairs=len(specs), parallel=parallel,
                           platforms=len(variants))
        cache = SweepCache(cache_dir) if cache_dir else None
        if parallel or cache:
            # Cache keys identify workloads by (name, scale), so the cache
            # needs the same name->class reconstructibility guarantee as
            # the pool workers: an unregistered same-named workload would
            # otherwise poison (or wrongly hit) the shared entries.
            self._verify_parallelizable(workloads)

        slots: List[Optional[ExecutionResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = cache.load(spec) if cache else None
            if cached is not None:
                slots[index] = cached
            else:
                pending.append(index)
        stats.cache_hits = len(specs) - len(pending)
        stats.executed = len(pending)

        if pending:
            if parallel:
                stats.workers = min(resolve_sweep_workers(workers),
                                    len(pending))
            pending_specs = [specs[index] for index in pending]
            if stats.workers > 1:
                # ``Executor.map`` yields results in submission order, so
                # the grid below is independent of completion order.
                with ProcessPoolExecutor(
                        max_workers=stats.workers) as pool:
                    executed = list(pool.map(execute_run_spec,
                                             pending_specs, chunksize=1))
            else:
                # In-process: reuse this runner's program cache.
                by_name = {workload.name: workload for workload in workloads}
                executed = [
                    _execute(self.program_for(by_name[spec.workload]), spec)
                    for spec in pending_specs
                ]
            for index, result in zip(pending, executed):
                slots[index] = result
                if cache:
                    cache.store(specs[index], result)

        self.last_sweep_stats = stats
        if keyed_by_platform:
            return {(spec.workload, spec.policy, spec.platform_name): result
                    for spec, result in zip(specs, slots)}
        return {(spec.workload, spec.policy): result
                for spec, result in zip(specs, slots)}

    def _resolve_platforms(self, platforms: Optional[Sequence[object]]
                           ) -> List[Tuple[str, PlatformConfig]]:
        """Normalize the platform axis into (name, config) pairs.

        ``None`` means "no platform axis": one anonymous entry holding the
        runner's configured platform under the ``default`` label.
        """
        if platforms is None:
            return [("default", self.config.platform)]
        resolved: List[Tuple[str, PlatformConfig]] = []
        seen = set()
        for entry in platforms:
            if isinstance(entry, str):
                name, config = entry, platform_variant(
                    entry, base=self.config.platform)
            else:
                name, config = entry
            if name in seen:
                raise ValueError(
                    f"duplicate platform variant {name!r} in sweep; the "
                    "variant names key the result grid")
            seen.add(name)
            resolved.append((name, config))
        if not resolved:
            raise ValueError("platform axis must name at least one variant")
        return resolved

    @staticmethod
    def _verify_parallelizable(workloads: Iterable[Workload]) -> None:
        """Parallel sweeps rebuild workloads by name in the workers."""
        for workload in workloads:
            rebuilt = workload_by_name(workload.name, scale=workload.scale)
            if type(rebuilt) is not type(workload):
                raise ValueError(
                    f"workload {workload.name!r} is not reconstructible "
                    f"from the workload registry (got "
                    f"{type(rebuilt).__name__}, expected "
                    f"{type(workload).__name__}); run this sweep serially "
                    "or register the workload class")
            if rebuilt.cache_identity() != workload.cache_identity():
                raise ValueError(
                    f"workload {workload.name!r} rebuilds with cache "
                    f"identity {rebuilt.cache_identity()!r}, expected "
                    f"{workload.cache_identity()!r}; the registry entry "
                    "no longer matches this instance (re-register the "
                    "trace/parameters or run serially)")


#: The policy every speedup and energy table is normalized to.
TABLE_BASELINE = "CPU"


def speedup_table(results: Dict[Tuple[str, str], ExecutionResult],
                  policies: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """Speedups over the CPU baseline plus a GMEAN row (Fig. 5 / 7a)."""
    workloads = sorted({workload for workload, _ in results})
    table: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        base = results[(workload, TABLE_BASELINE)]
        table[workload] = {
            policy: speedup(base, results[(workload, policy)])
            for policy in policies if (workload, policy) in results
        }
    table["GMEAN"] = {
        policy: geometric_mean([table[w][policy] for w in workloads
                                if policy in table[w]])
        for policy in policies
    }
    return table


def energy_table(results: Dict[Tuple[str, str], ExecutionResult],
                 policies: Sequence[str]
                 ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Energy over the CPU baseline, split DM vs compute (Fig. 7b)."""
    workloads = sorted({workload for workload, _ in results})
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in workloads:
        base_energy = results[(workload, TABLE_BASELINE)].total_energy_nj
        if base_energy <= 0:
            # Normalizing by a zero-energy baseline is undefined; the old
            # behaviour silently emitted an all-zero row, which reads as
            # "this policy is free" in Fig. 7(b).  Every simulated run
            # charges energy, so a zero here means the result grid is
            # broken -- fail loudly instead of flattening the figure.
            raise ValueError(
                f"baseline {TABLE_BASELINE!r} reported zero energy for workload "
                f"{workload!r}; cannot normalize the energy table")
        row: Dict[str, Dict[str, float]] = {}
        for policy in policies:
            if (workload, policy) not in results:
                continue
            result = results[(workload, policy)]
            total = result.total_energy_nj / base_energy
            dm_fraction = result.energy.data_movement_fraction
            row[policy] = {
                "total": total,
                "data_movement": total * dm_fraction,
                "compute": total * (1 - dm_fraction),
            }
        table[workload] = row
    return table
