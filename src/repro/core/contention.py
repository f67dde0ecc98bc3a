"""Link-contention feedback for the offload cost model.

The paper's cost function estimates data movement from the precomputed
*uncontended* latency table of Section 4.5.  That per-instruction greedy
estimate systematically mispredicts once a shared link congests: every
instruction is priced as if it were alone on the PCIe/CXL link, the SSD
DRAM bus and the flash channels, so the argmin keeps steering work onto an
overloaded path (the LLM-Training row of the roster ablation regresses
end-to-end on the ``cxl-pud`` platform while its per-instruction decisions
"improve").

:class:`LinkContentionMonitor` closes the loop with the one signal the
offloader can observe cheaply and without bias: how long reaching an
operand path *actually* took versus the uncontended estimate.  A path is a
candidate's home :class:`~repro.common.DataLocation`, so the overrun seen
by one backend's movements reprices every backend with the same home.
Every completed operand movement reports ``(path, estimated_ns,
observed_ns)``; the overrun ratio ``observed / estimated`` is the queueing
the movement experienced on the shared links of that path plus any
lazy-coherence commits it had to wait for (operand ping-pong between homes
surfaces as commit delay, and attributing it to the path being entered is
what lets the feedback price write-sharing churn too).  The monitor keeps
an exponentially weighted moving average of the ratio per path, and
:meth:`LinkContentionMonitor.penalty_ns` prices each candidate's movement
estimate at its path's smoothed ratio, so a congested path prices future
work at its observed (not theoretical) cost -- and because an overpriced
path stops attracting work, its buses drain and its next observation pulls
the average back down: the feedback is self-balancing.

The penalty also charges the live backlog of backend-private links (the
CXL command link, ``ComputeBackend.link_backlog_ns``) and the shared
flash-channel time of the candidate's own execution (Ares-Flash partial
products, ``ComputeBackend.execution_channel_bytes``).

The platform builds a monitor only with
``PlatformConfig.contention_feedback`` (default off); without one every
penalty is exactly ``0.0`` and the uncorrected goldens stay bit-exact.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.common import SimulationError
from repro.core.backends import ComputeBackend

#: Upper clamp on one observation's overrun ratio: a single pathological
#: movement (e.g. one that queued behind a burst of evictions) must not
#: price a path out of the argmin forever -- an unchosen path is never
#: re-observed, so an unbounded spike could never be corrected.
MAX_OVERRUN_RATIO = 10.0


class LinkContentionMonitor:
    """EWMA of observed movement overrun, per operand path.

    ``alpha`` is the usual EWMA smoothing factor (``1.0`` keeps only the
    latest sample); ``gain`` weights how much of the smoothed overrun is
    charged back into the estimates (``scale = 1 + gain * (ewma - 1)``).
    State is owned by one :class:`~repro.core.platform.SSDPlatform`
    instance, so every (workload, policy, platform) run starts from a
    clean monitor and sharded sweeps cannot leak feedback across runs.
    A path's average moves only when that path is observed again.
    """

    def __init__(self, alpha: float = 0.3, gain: float = 2.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(
                f"contention EWMA alpha must be in (0, 1], got {alpha}")
        if gain < 0.0:
            raise SimulationError(
                f"contention gain must be non-negative, got {gain}")
        self.alpha = alpha
        self.gain = gain
        self._overrun: Dict[Hashable, float] = {}
        #: Least-congested observed overrun, recomputed on the first query
        #: after an observation (``None`` until then).
        self._floor: Optional[float] = None
        self.samples = 0

    def observe_movement(self, path: Hashable, estimated_ns: float,
                         observed_ns: float) -> None:
        """Fold one completed movement's estimate/actual pair into ``path``.

        Movements with no estimated cost carry no signal (nothing moved)
        and are ignored.  The overrun ratio is clamped to
        ``[1, MAX_OVERRUN_RATIO]``: a movement faster than the uncontended
        estimate (runs overlap their flash reads across channels) means
        *no* queueing, not negative queueing.  A path's first observation
        seeds its average directly (no warm-up lag).
        """
        if estimated_ns <= 0.0:
            return
        if observed_ns < 0.0:
            raise SimulationError(
                f"negative observed movement {observed_ns} on {path!r}")
        ratio = min(MAX_OVERRUN_RATIO, max(1.0, observed_ns / estimated_ns))
        previous = self._overrun.get(path)
        self._overrun[path] = (
            ratio if previous is None
            else self.alpha * ratio + (1.0 - self.alpha) * previous)
        self._floor = None
        self.samples += 1

    def overrun(self, path: Hashable) -> float:
        """Current EWMA overrun ratio of ``path`` (1.0 if never observed)."""
        return self._overrun.get(path, 1.0)

    def relative_overrun(self, path: Hashable) -> float:
        """``path``'s overrun relative to the least-congested observed path.

        Every operand path shares its source leg (operands stream out of
        flash in the steady state), so absolute overruns rise *together*
        when the flash channels congest -- which says nothing about which
        destination to prefer.  What separates the candidates is the
        path-specific excess over the best observed path; normalizing by
        the minimum cancels the common-leg congestion exactly.  A path
        that was never observed is assumed as good as the best one
        (optimism keeps unexplored paths explorable); with nothing
        observed at all every path reports ``1.0``.
        """
        if not self._overrun:
            return 1.0
        floor = self._floor
        if floor is None:
            floor = self._floor = min(self._overrun.values())
        return self._overrun.get(path, floor) / floor

    def scale(self, path: Hashable) -> float:
        """Movement-estimate scale for ``path`` (>= 1).

        ``1 + gain * (relative_overrun - 1)``: exactly ``1.0`` for a
        never-observed path and under zero traffic, so feedback-on
        estimates equal feedback-off estimates until contention is
        actually observed.
        """
        relative = self.relative_overrun(path)
        if relative <= 1.0:
            return 1.0
        return 1.0 + self.gain * (relative - 1.0)

    def penalty_ns(self, path: Hashable, movement_ns: float,
                   backend: ComputeBackend, now: float,
                   channel_ns: float) -> float:
        """Expected extra delay from link contention for one candidate.

        ``movement_ns`` (the candidate's uncontended movement estimate)
        scaled by ``path``'s smoothed overrun, plus ``backend``'s
        private-link backlog, plus -- once anything has been observed --
        ``channel_ns``, the shared flash-channel time its execution would
        occupy (traffic that never extends its own latency, so without
        feedback it is a free externality on every flash-bound movement).
        """
        penalty = 0.0
        if movement_ns > 0.0:
            # Private-link backlog rides with the movement term: a
            # zero-movement candidate's busy tier is already priced by
            # the queueing-delay feature (its execution queue is a
            # per-candidate cost input), so charging the link again
            # there double-counts and measurably over-deters.
            penalty += (movement_ns * (self.scale(path) - 1.0) +
                        backend.link_backlog_ns(now))
        if self.samples > 0 and channel_ns:
            # The externality price activates with the feedback loop's
            # first observation: under provably zero traffic (nothing
            # moved yet) feedback-on estimates must equal feedback-off.
            penalty += channel_ns
        return penalty
