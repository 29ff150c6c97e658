"""Run-scoped observability bundle.

:class:`RunObserver` owns everything one observed run collects — the
trace collector, the gauge sampler, per-replica iteration logs, and
optionally the runtime invariant sanitizer — and knows how to attach
them to the simulation topology:

- :meth:`attach_engine` is called by the fleet driver for every engine
  its replica factory builds (initial fleet, autoscaled additions, and
  crash-replacement engines alike), installing one per-replica
  :class:`~repro.obs.trace.ReplicaTracer` as ``engine.obs``.  That
  watcher emits trace events, records iteration logs and runs KV audits
  for whichever of the three are on.  Iteration logs are keyed by
  replica index so a crash-replacement engine appends to the same log
  its predecessor used;
- :meth:`bind_fleet` installs the sampler's state-capture callback for
  the fleet loop, which drives single-engine runs too (as one replica).

Attachment is the only side effect; collection and checking never touch
simulation state, so observed runs stay byte-identical to unobserved
ones.
"""

from __future__ import annotations

from repro.obs.sampler import GaugeSampler, Sample
from repro.obs.spec import ObsSpec
from repro.obs.trace import ReplicaTracer, TraceCollector
from repro.serving.telemetry import IterationLog


def _prefix_blocks(kv) -> int:
    """Shared prefix blocks currently cached (0 without prefix caching)."""
    return kv.prefix_stats().cached_blocks if kv.prefix_caching else 0


class RunObserver:
    """Collector + sampler + iteration logs + sanitizer for one run.

    ``checker`` is an optional
    :class:`~repro.check.invariants.InvariantChecker`
    (``--check-invariants``): the fleet driver runs its event-order,
    sampler and conservation checks, and each replica's watcher its KV
    audits.
    """

    def __init__(
        self,
        trace: bool = True,
        sample_every_s: float = 0.5,
        iteration_log: bool = False,
        sample_capacity: int = 4096,
        checker=None,
    ) -> None:
        self.collector: TraceCollector | None = TraceCollector() if trace else None
        self.sampler: GaugeSampler | None = (
            GaugeSampler(sample_every_s, sample_capacity) if trace else None
        )
        self.iteration_logs: dict[int, IterationLog] | None = (
            {} if iteration_log else None
        )
        self.checker = checker

    @classmethod
    def from_spec(cls, spec: ObsSpec) -> "RunObserver":
        """Observer matching an :class:`~repro.obs.spec.ObsSpec` section."""
        return cls(
            trace=spec.trace,
            sample_every_s=spec.sample_every_s,
            iteration_log=spec.iteration_log,
        )

    # ------------------------------------------------------------------
    # Topology attachment
    # ------------------------------------------------------------------
    def attach_engine(self, engine, replica: int) -> None:
        """Watch one freshly built engine as replica ``replica``."""
        logs = self.iteration_logs
        if self.collector is None and logs is None and self.checker is None:
            return
        log = logs.setdefault(replica, IterationLog()) if logs is not None else None
        engine.obs = ReplicaTracer(self.collector, replica, log, self.checker, engine.kv)

    def bind_fleet(self, fleet) -> None:
        """Sampler capture for the fleet loop (live replica list)."""
        if self.sampler is None:
            return

        def capture(t: float) -> Sample:
            rows = []
            live = warming = draining = failed = 0
            for r in fleet.replicas:
                if r.retired:
                    state = "retired"
                elif r.failed:
                    state = "failed"
                    failed += 1
                elif r.draining:
                    state = "draining"
                    draining += 1
                elif r.available_at > t:
                    state = "warming"
                    warming += 1
                else:
                    state = "live"
                    live += 1
                kv = r.engine.kv
                rows.append(
                    (
                        r.index,
                        state,
                        len(r.scheduler.waiting),
                        len(r.scheduler.running),
                        kv.used_blocks,
                        kv.total_blocks,
                        _prefix_blocks(kv),
                    )
                )
            return Sample(
                t, (live, warming, draining, failed, len(fleet.replicas)), tuple(rows)
            )

        self.sampler.bind(capture)
