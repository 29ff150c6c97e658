"""Per-layer tracing from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each layer while it
is installed and restores them on :meth:`LayerTracer.uninstall`.  Every
wrapper is patched where its caller looks the name up: a module global
that a caller imports by name (``repro.core.pipeline.speculate_batch``,
``repro.serving.engine.request_block_keys``), a class attribute reached
through an instance (``FleetSimulator.run``), or an attribute of the
engine, scheduler and router instances the harness builds.  ``src/`` is
not modified.

A timed wrapper records one span ``[name, start, end, parent, ctx]`` in
memory, where ``parent`` is the index of the enclosing span (or -1) and
``ctx`` is the request id for per-request calls, else the scheduler
iteration the span belongs to.  ``ModelPair.target_sample`` and
``KVCacheManager.ensure`` run about 10^5 times or more in a pass, so they
get no spans, which would swamp the time they measure: :meth:`sampled`
counts them and times only every :data:`SAMPLE_EVERY`-th call to
estimate their total, which stays in the caller's self time.  Wrappers never change arguments or
results: a traced pass must produce the same report digest as an
untraced one.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: One call in this many of a :meth:`LayerTracer.sampled` name is timed.
SAMPLE_EVERY = 64
#: Marks an attribute that did not exist before it was patched.
_ABSENT = object()


class LayerTracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.sampled_s: dict[str, float] = defaultdict(float)
        self.engines: list = []
        self._stack: list[int] = []
        self._iteration = -1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(self, name, fn, ctx_of=None, on_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            ctx = ctx_of(args) if ctx_of is not None else self._iteration
            span = [name, clock(), 0.0, stack[-1] if stack else -1, ctx]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sampled(self, name, fn):
        counts = self.counts
        sampled_s = self.sampled_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if counts[name] % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sampled_s[name] += clock() - start

        return wrapper

    def estimated_s(self, name: str) -> float:
        """Total seconds in a :meth:`sampled` name, from its samples."""
        samples = self.counts[name] // SAMPLE_EVERY
        return self.sampled_s[name] / samples * self.counts[name] if samples else 0.0

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), **kw))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.analysis.harness as harness
        import repro.analysis.runner as runner
        import repro.cluster.fleet as fleet
        import repro.cluster.replica as replica
        import repro.core.pipeline as pipeline
        import repro.core.scheduler as core_scheduler
        import repro.model.batchgen as batchgen
        import repro.serving.engine as engine_mod
        import repro.serving.scheduler_base as scheduler_base
        import repro.serving.server as server

        add = self.sums

        def requests_built(args, result):
            add["workloads.requests"] += len(result)

        def iteration_done(args, result):
            add["core.draft_tokens"] += result.speculation.total_draft_tokens
            add["core.verify_tokens"] += result.verify_tokens
            add["core.accepted_tokens"] += result.total_accepted
            add["core.candidates_scanned"] += result.selection.candidates_scanned

        self._wrap(runner, "build_workload", "workloads.build", on_result=requests_built)
        self._wrap(server.ServingSimulator, "run", "serving.driver")
        self._wrap(fleet.FleetSimulator, "run", "cluster.driver")
        for module in (server, fleet, replica):
            self._wrap(module, "aggregate_metrics", "serving.metrics")
        self._wrap(core_scheduler, "run_iteration", "core.iteration", on_result=iteration_done)
        self._wrap(pipeline, "speculate_batch", "core.speculate")
        self._wrap(pipeline, "select_tokens", "core.select")
        self._wrap(pipeline, "verify_tree", "core.verify")
        self._wrap(batchgen, "prefetch_target", "model.prefetch_target")
        self._wrap(batchgen, "prefetch_draft", "model.prefetch_draft")
        rid = lambda args: args[0].rid  # noqa: E731
        for module in (engine_mod, scheduler_base):
            self._wrap(module, "request_block_keys", "prefixcache.block_keys", ctx_of=rid)
        self._patch(harness, "make_scheduler", self._scheduler_factory(harness.make_scheduler))
        self._patch(harness, "make_router", self._router_factory(harness.make_router))
        self._patch(harness.Setup, "build_engine", self._engine_factory(harness.Setup.build_engine))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _scheduler_factory(self, make_scheduler):
        def factory(*args, **kwargs):
            scheduler = make_scheduler(*args, **kwargs)
            step = self.timed("serving.step", scheduler.step)

            def counted_step(*a, **k):
                self._iteration += 1
                return step(*a, **k)

            scheduler.step = counted_step
            return scheduler

        return factory

    def _router_factory(self, make_router):
        def factory(*args, **kwargs):
            router = make_router(*args, **kwargs)
            router.route = self.timed("cluster.route", router.route, ctx_of=lambda a: a[0].rid)
            return router

        return factory

    def _engine_factory(self, build_engine):
        add = self.sums

        def decode_batch(args, result):
            add["serving.decode_batch"] += len(args[0])

        def mixed_batch(args, result):
            add["serving.mixed_batch"] += len(args[0]) + len(args[1])

        def factory(setup):
            engine = build_engine(setup)
            self.engines.append(engine)
            engine.decode = self.timed("serving.decode", engine.decode, on_result=decode_batch)
            engine.mixed_step = self.timed(
                "serving.mixed_step", engine.mixed_step, on_result=mixed_batch
            )
            engine.prefill = self.timed("serving.prefill", engine.prefill)
            engine.preempt = self.counted("serving.preemptions", engine.preempt)
            kv = engine.kv
            kv.ensure = self.sampled("serving.kv_ensure", kv.ensure)
            kv.free = self.counted("serving.kv_free", kv.free)
            if hasattr(kv, "lock_keys"):
                kv.lock_keys = self.timed("prefixcache.lock", kv.lock_keys)
                kv.commit_keys = self.timed("prefixcache.commit", kv.commit_keys)
            engine.pair.target_sample = self.sampled(
                "model.target_sample", engine.pair.target_sample
            )
            for roofline in (engine.target_roofline, engine.draft_roofline):
                roofline.forward_latency = self.timed(
                    "hardware.roofline", roofline.forward_latency
                )
            return engine

        return factory

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
            row["durations"].append(duration)
        return table

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent, ctx."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

