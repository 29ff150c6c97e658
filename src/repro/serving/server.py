"""Single-engine entry point and the shared run report.

:class:`ServingSimulator` simulates one scheduler over one arrival trace.
It is the 1-replica entry point to the one simulation driver,
:class:`~repro.cluster.fleet.FleetSimulator`: the caller's engine and
scheduler become replica 0 of a fleet with a round-robin router, and the
run's report is that replica's report.

Serving is iteration-driven: GPU serving systems execute one batch step
at a time, and every interesting event (token commit, prefill
completion) happens at an iteration boundary.  A request that arrives
while the engine is busy waits in its queue until the next boundary,
exactly as a real engine's waiting queue behaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.engine import SimulatedEngine
from repro.serving.metrics import RunMetrics
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
# Not used by this module; kept importable because the slobench layer
# profiler patches ``server.aggregate_metrics``.
from repro.serving.streaming import aggregate_metrics  # noqa: F401


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one simulated run."""

    scheduler_name: str
    metrics: RunMetrics
    sim_time_s: float
    iterations: int
    phase_breakdown: dict[str, float]
    requests: list[Request]
    #: Incident report (fault timeline + recovery milestones) for runs
    #: with an active fault schedule; None otherwise.  See repro.chaos.
    chaos: dict | None = None

    @property
    def attainment(self) -> float:
        """SLO attainment (convenience passthrough)."""
        return self.metrics.attainment

    @property
    def goodput(self) -> float:
        """Goodput in tokens/s (convenience passthrough)."""
        return self.metrics.goodput


class ServingSimulator:
    """Simulate one scheduler over one workload trace.

    A thin front for :class:`~repro.cluster.fleet.FleetSimulator` with one
    replica, so single-engine and fleet runs share one event loop (and
    its safety horizon, observation, and invariant checks).  The report is
    the replica's: the bare scheduler name and no chaos section.

    Parameters
    ----------
    engine:
        The simulated execution engine (fresh per run).
    scheduler:
        The policy under test (fresh per run, wrapping ``engine``).
    requests:
        The workload; arrival times are absolute seconds.
    max_sim_time_s:
        Safety horizon; no iteration starts beyond it (unfinished
        requests count as violations).
    max_iterations:
        Safety cap on scheduler iterations.
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`, attached to
        ``engine`` by the fleet driver: lifecycle tracing, gauge
        sampling, the iteration log, and — when it carries a checker —
        the runtime invariant sanitizer.  Observation is passive — an
        observed run's report is byte-identical to an unobserved one's.
    """

    def __init__(
        self,
        engine: SimulatedEngine,
        scheduler: Scheduler,
        requests: list[Request],
        max_sim_time_s: float = 7200.0,
        max_iterations: int = 2_000_000,
        observer=None,
        metrics_mode: str = "exact",
    ) -> None:
        # Replica makes the same check, but only once run() builds it;
        # reject a mismatched pair at construction already.
        if scheduler.engine is not engine:
            raise ValueError("scheduler must wrap the provided engine")
        self.engine = engine
        self.scheduler = scheduler
        self.requests = requests
        self.max_sim_time_s = max_sim_time_s
        self.max_iterations = max_iterations
        self.observer = observer
        self.metrics_mode = metrics_mode

    def run(self) -> SimulationReport:
        """Execute the simulation to completion (or safety cutoff)."""
        # Imported here: repro.cluster.fleet imports SimulationReport
        # from this module.
        from repro.cluster.fleet import FleetSimulator
        from repro.cluster.router import RoundRobinRouter

        fleet = FleetSimulator(
            lambda index: (self.engine, self.scheduler),
            self.requests,
            RoundRobinRouter(),
            num_replicas=1,
            max_sim_time_s=self.max_sim_time_s,
            max_iterations=self.max_iterations,
            observer=self.observer,
            metrics_mode=self.metrics_mode,
        )
        return fleet.run().replica_reports[0]
