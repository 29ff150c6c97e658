"""Request-lifecycle trace collection.

A trace is an append-only list of typed :class:`TraceEvent` records on
the shared simulation clock, keyed by request id and replica index.  The
grammar (``kind`` values) covers the whole request lifecycle plus the
fleet-level control/chaos plane:

============== ===== ========================================================
kind           shape meaning
============== ===== ========================================================
enqueue        point request entered a scheduler queue (admission/failover)
prefill        span  one prefill pass processed ``tokens`` prompt tokens
decode         span  coalesced decode phase, first token through last commit
finish         point request completed generation
preempt        point KV-pressure eviction (``drop_kv`` says KV was dropped)
prefix-hit     point prefix-cache lookup matched ``tokens`` cached tokens
prefix-miss    point prefix-cache lookup matched nothing
prefix-rollback point unused batch-entry hit rolled back (request re-queued)
failover       point request evacuated from a crashed replica, re-routed
crash          point replica process died (``evacuated`` requests surrendered)
restart        point crashed replica came back cold
straggler      point replica degraded by ``slow``x (``straggler-end`` clears)
scale-up       point autoscaler added a warming replica
scale-down     point autoscaler started draining a replica
scale-delay    point chaos slowed the control plane by ``extra_s``
============== ===== ========================================================

Spans carry ``dur`` (seconds); point events leave it ``None``.  Decode
steps are deliberately coalesced into a single span per request (emitted
at finish, stamped ``decode_start .. last_token_time``): per-step events
would dominate trace size without adding information the iteration
counters do not already carry.

Collection is strictly passive — emitters read simulation state and
never mutate it — so an instrumented run produces byte-identical
simulation results to an uninstrumented one, and the trace itself is a
pure function of the run (deterministic for a fixed seed).

Fleet-scoped events (chaos markers, scale events) use
``replica=FLEET_TRACK``; exporters map that to a dedicated timeline
track.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sentinel replica index for fleet-scoped events (control plane, chaos
#: markers without a single victim).  Exporters render these on a
#: dedicated "fleet" track instead of a replica track.
FLEET_TRACK = -1


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One typed trace record (see the module grammar table)."""

    t: float
    kind: str
    replica: int
    rid: int | None = None
    #: Span length in seconds; ``None`` for point events.
    dur: float | None = None
    #: Small kind-specific payload (token counts, flags); ``None`` when empty.
    data: dict | None = None


class TraceCollector:
    """Append-only event sink shared by every emitter in one run.

    Query helpers (:meth:`of_kind`, :meth:`for_request`) are backed by
    lazily built kind/rid indexes: emitters append straight to
    ``events`` (the hot path stays a plain ``list.append``), and a query
    first folds any events appended since the last query into the index
    — so interleaved append/query sequences stay correct and attribution
    passes (one :meth:`for_request` per request; see
    :mod:`repro.obs.attrib`) cost O(events) total instead of
    O(requests x events).
    """

    __slots__ = ("events", "_by_kind", "_by_rid", "_indexed")

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        # Index state: events[:_indexed] have been folded in; anything
        # appended later is picked up by the next _sync() call.
        self._by_kind: dict[str, list[TraceEvent]] = {}
        self._by_rid: dict[int, list[TraceEvent]] = {}
        self._indexed = 0

    def __len__(self) -> int:
        return len(self.events)

    def tracer(self, replica: int) -> "ReplicaTracer":
        """A per-replica emitter bound to this collector."""
        return ReplicaTracer(self, replica)

    def event(
        self,
        t: float,
        kind: str,
        replica: int = FLEET_TRACK,
        rid: int | None = None,
        dur: float | None = None,
        data: dict | None = None,
    ) -> None:
        """Record one event directly (fleet-level emission sites)."""
        self.events.append(TraceEvent(t, kind, replica, rid, dur, data))

    def _sync(self) -> None:
        """Fold events appended since the last query into the indexes."""
        events = self.events
        for i in range(self._indexed, len(events)):
            e = events[i]
            self._by_kind.setdefault(e.kind, []).append(e)
            if e.rid is not None:
                self._by_rid.setdefault(e.rid, []).append(e)
        self._indexed = len(events)

    # -- query helpers (tests, summaries, attribution) -------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in emission order."""
        self._sync()
        return list(self._by_kind.get(kind, ()))

    def for_request(self, rid: int) -> list[TraceEvent]:
        """All events of one request, in emission order."""
        self._sync()
        return list(self._by_rid.get(rid, ()))

    def kinds(self) -> set[str]:
        """The set of kinds that actually occurred."""
        self._sync()
        return set(self._by_kind)


class ReplicaTracer:
    """Per-replica emitter installed as ``engine.obs``.

    The engine and scheduler base call these methods only behind
    ``if obs is not None`` guards, so disabled runs pay a single
    attribute check per site.  ``now`` is refreshed by
    :meth:`~repro.cluster.replica.Replica.step` at each iteration
    boundary, giving emission sites that have no time parameter of their
    own (preemption, prefix lookups) the iteration start time.
    """

    __slots__ = ("_events", "replica", "now")

    def __init__(self, collector: TraceCollector, replica: int) -> None:
        self._events = collector.events
        self.replica = replica
        self.now = 0.0

    def _emit(
        self,
        t: float,
        kind: str,
        rid: int | None = None,
        dur: float | None = None,
        data: dict | None = None,
    ) -> None:
        self._events.append(TraceEvent(t, kind, self.replica, rid, dur, data))

    # -- lifecycle -------------------------------------------------------
    def enqueue(self, t: float, req) -> None:
        """Request entered this replica's waiting queue."""
        data = {"failover_count": req.failover_count} if req.failover_count else None
        self._emit(t, "enqueue", req.rid, data=data)

    def prefill(self, t: float, dur: float, req, tokens: int) -> None:
        """One prefill pass advanced ``req`` by ``tokens`` prompt tokens."""
        self._emit(t, "prefill", req.rid, dur, {"tokens": tokens, "prefilled": req.prefilled})

    def finish(self, req) -> None:
        """Request completed: emit its coalesced decode span + finish mark."""
        if req.decode_start is not None and req.last_token_time is not None:
            self._emit(
                req.decode_start,
                "decode",
                req.rid,
                req.last_token_time - req.decode_start,
                {"tokens": req.n_generated},
            )
        self._emit(req.finish_time, "finish", req.rid, data={"tokens": req.n_generated})

    def preempt(self, req, drop_kv: bool) -> None:
        """KV-pressure preemption at the current iteration boundary."""
        self._emit(self.now, "preempt", req.rid, data={"drop_kv": drop_kv})

    # -- prefix cache ----------------------------------------------------
    def prefix_lookup(self, req, tokens: int) -> None:
        """Outcome of a batch-entry prefix-cache match."""
        if tokens > 0:
            self._emit(self.now, "prefix-hit", req.rid, data={"tokens": tokens})
        else:
            self._emit(self.now, "prefix-miss", req.rid)

    def prefix_rollback(self, req, tokens: int) -> None:
        """A fresh hit went unused (request stayed queued)."""
        self._emit(self.now, "prefix-rollback", req.rid, data={"tokens": tokens})
