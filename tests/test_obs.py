"""Tests for the observability subsystem (:mod:`repro.obs`).

The subsystem's contract has three load-bearing clauses:

- **passive**: an observed run's report is byte-identical to the same
  run unobserved (and obs-off runs keep reproducing the committed
  golden digests);
- **deterministic**: fixed-seed traced runs export byte-identical
  Perfetto and time-series JSON across repeats;
- **cache-neutral**: the ``obs`` section never reaches the cache key or
  the serialized spec.
"""

from __future__ import annotations

import json
from typing import ClassVar

import pytest

from repro.analysis.export import report_to_json
from repro.analysis.runner import run_spec, run_traced
from repro.analysis.spec import ExperimentSpec
from repro.obs import (
    FLEET_TRACK,
    GaugeSampler,
    ObsSpec,
    TraceCollector,
    format_slowest_table,
    perfetto_json,
    perfetto_trace,
    series_to_dict,
    series_to_json,
    slowest_requests,
)
from repro.obs.export import FLEET_PID
from tests.conftest import make_request


def _spec(**kw) -> ExperimentSpec:
    kw.setdefault("model", "llama70b")
    kw.setdefault("seed", 0)
    return ExperimentSpec.create(**kw)


#: Small chaos fleet: crash replica 1 at t=4, restart 2s later.  The
#: sampler assertions below are pinned to this exact scenario.
_CHAOS_KW = dict(
    system="vllm",
    rps=14.0,
    duration_s=10.0,
    trace="bursty",
    replicas=2,
    router="round-robin",
    faults=("crash:at=4,replica=1,restart=2",),
)


class TestObsSpec:
    def test_defaults_disabled(self):
        spec = ObsSpec()
        assert not spec.trace and not spec.iteration_log
        assert not spec.enabled

    def test_enabled_variants(self):
        assert ObsSpec(trace=True).enabled
        assert ObsSpec(iteration_log=True).enabled

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf")])
    def test_sample_period_validation(self, period):
        with pytest.raises(ValueError):
            ObsSpec(sample_every_s=period)

    def test_cache_key_and_serialization_neutrality(self):
        plain = _spec(system="vllm", rps=4.0, duration_s=6.0)
        traced = _spec(
            system="vllm",
            rps=4.0,
            duration_s=6.0,
            obs=ObsSpec(trace=True, sample_every_s=0.1, iteration_log=True),
        )
        # Observability knobs must never fork cache keys or exports.
        assert plain.digest() == traced.digest()
        assert "obs" not in traced.to_dict()
        roundtrip = ExperimentSpec.from_dict(traced.to_dict())
        assert not roundtrip.obs.enabled


class TestGaugeSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaugeSampler(period_s=0.0)
        with pytest.raises(ValueError):
            GaugeSampler(capacity=1)

    def test_unbound_catch_up_is_noop(self):
        sampler = GaugeSampler()
        sampler.catch_up(100.0)
        assert len(sampler) == 0

    def test_ring_compaction_doubles_stride(self):
        sampler = GaugeSampler(period_s=1.0, capacity=8)
        seen: list[float] = []
        sampler.bind(lambda t: seen.append(t) or t)
        sampler.catch_up(100.0)
        # Memory stays bounded while the full span remains covered.
        assert len(sampler.samples) <= 8
        assert sampler.period_s > sampler.requested_period_s
        assert sampler.samples[-1] >= 96.0
        assert seen == sorted(seen)

    def test_catch_up_fires_every_pending_tick(self):
        sampler = GaugeSampler(period_s=0.5, capacity=64)
        sampler.bind(lambda t: t)
        sampler.catch_up(2.0)
        assert sampler.samples == [0.0, 0.5, 1.0, 1.5, 2.0]
        # A later catch-up never re-fires past ticks.
        sampler.catch_up(2.0)
        assert len(sampler) == 5


class TestTracer:
    def test_lifecycle_emissions(self):
        collector = TraceCollector()
        tracer = collector.tracer(3)
        req = make_request(rid=7)
        tracer.enqueue(0.5, req)
        tracer.prefill(1.0, 0.25, req, tokens=32)
        req.decode_start = 1.25
        req.last_token_time = 2.0
        req.finish_time = 2.0
        tracer.finish(req)
        kinds = collector.kinds()
        assert {"enqueue", "prefill", "decode", "finish"} <= kinds
        assert all(e.replica == 3 for e in collector.events)
        assert [e.kind for e in collector.for_request(7)] == [
            "enqueue",
            "prefill",
            "decode",
            "finish",
        ]
        (decode,) = collector.of_kind("decode")
        assert decode.t == 1.25 and decode.dur == pytest.approx(0.75)

    def test_preempt_stamps_iteration_start(self):
        collector = TraceCollector()
        tracer = collector.tracer(0)
        tracer.now = 4.5
        tracer.preempt(make_request(rid=1), drop_kv=True)
        (ev,) = collector.of_kind("preempt")
        assert ev.t == 4.5
        assert ev.data == {"drop_kv": True}

    def test_solo_enqueue_stamps_arrival_instant(self):
        # A single-engine run admits each request when it arrives (a busy
        # engine queues it for its next boundary), like a fleet replica.
        report, observer = run_traced(
            _spec(system="vllm", rps=5.0, duration_s=6.0, obs=ObsSpec(trace=True))
        )
        arrival = {r.rid: r.arrival_time for r in report.requests}
        enqueues = observer.collector.of_kind("enqueue")
        assert sorted(e.rid for e in enqueues) == sorted(arrival)
        assert [e.t for e in enqueues] == [arrival[e.rid] for e in enqueues]


class TestObservationInvariance:
    """Observed runs must not change a single byte of the report."""

    def test_solo_run_invariant(self):
        spec = _spec(system="adaserve", rps=4.0, duration_s=6.0)
        plain = report_to_json(run_spec(spec))
        traced_spec = _spec(
            system="adaserve",
            rps=4.0,
            duration_s=6.0,
            obs=ObsSpec(trace=True, sample_every_s=0.25, iteration_log=True),
        )
        report, observer = run_traced(traced_spec)
        assert report_to_json(report) == plain
        assert len(observer.collector) > 0
        assert len(observer.sampler) > 0

    def test_chaos_fleet_invariant(self):
        plain = report_to_json(run_spec(_spec(**_CHAOS_KW)))
        report, observer = run_traced(
            _spec(**_CHAOS_KW, obs=ObsSpec(trace=True))
        )
        assert report_to_json(report) == plain
        assert {"crash", "restart", "failover"} <= observer.collector.kinds()

    def test_golden_digest_survives_observation(self):
        # The committed golden digest for this scenario must hold even
        # with every observability knob on.
        from tests.test_golden_equivalence import GOLDEN, _digest

        name, kw, want = GOLDEN[0]
        assert name == "solo-vllm"
        traced = _spec(**kw, obs=ObsSpec(trace=True, iteration_log=True))
        report, _ = run_traced(traced)
        import hashlib

        got = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
        assert got == want == _digest(_spec(**kw))


class TestDeterminism:
    def test_trace_exports_byte_identical_across_reruns(self):
        def run():
            spec = _spec(
                **_CHAOS_KW, obs=ObsSpec(trace=True, iteration_log=True)
            )
            report, observer = run_traced(spec)
            return (
                perfetto_json(
                    observer.collector, observer.sampler, chaos=report.chaos
                ),
                series_to_json(observer),
            )

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestPerfettoExport:
    @pytest.fixture(scope="class")
    def traced(self):
        report, observer = run_traced(
            _spec(**_CHAOS_KW, obs=ObsSpec(trace=True))
        )
        return report, observer

    def test_structure(self, traced):
        report, observer = traced
        payload = json.loads(
            perfetto_json(observer.collector, observer.sampler, chaos=report.chaos)
        )
        events = payload["traceEvents"]
        assert payload["otherData"]["trace_schema"] == 1
        names = {e.get("name") for e in events}
        # Per-replica process tracks plus the synthetic fleet track.
        process_names = {
            e["args"]["name"] for e in events if e.get("name") == "process_name"
        }
        assert {"replica 0", "replica 1", "fleet"} <= process_names
        assert {"enqueue", "prefill", "decode", "finish", "crash", "restart"} <= names
        # Complete spans carry durations; instants carry a scope.
        for e in events:
            if e.get("ph") == "X":
                assert e["dur"] >= 0
            if e.get("ph") == "i":
                assert e["s"] in ("t", "p")
        # Chaos incident windows land on the fleet track.
        incidents = [e for e in events if e.get("name") == "incident"]
        assert incidents and all(e["pid"] == FLEET_PID for e in incidents)
        # Gauge counters are present for both replicas.
        counter_pids = {e["pid"] for e in events if e.get("ph") == "C"}
        assert {0, 1, FLEET_PID} <= counter_pids

    def test_fleet_track_mapping(self, traced):
        _report, observer = traced
        crash = observer.collector.of_kind("crash")[0]
        assert crash.replica != FLEET_TRACK  # crashes belong to a replica
        payload = perfetto_trace(observer.collector)
        (ev,) = [e for e in payload["traceEvents"] if e.get("name") == "crash"]
        assert ev["pid"] == crash.replica


class TestSamplerUnderChaos:
    """Satellite: crash-window samples tell the failure story."""

    @pytest.fixture(scope="class")
    def samples(self):
        _report, observer = run_traced(
            _spec(**_CHAOS_KW, obs=ObsSpec(trace=True, sample_every_s=0.5))
        )
        return observer.sampler.samples

    def test_dead_replica_reads_empty_and_failed(self, samples):
        window = [s for s in samples if 4.0 < s.t < 6.0]
        assert window, "no samples landed in the crash window"
        for s in window:
            row = s.row(1)
            assert row[1] == "failed"
            assert row[2] == 0 and row[3] == 0  # waiting, running
            assert s.fleet[0] == 1 and s.fleet[3] == 1  # live, failed

    def test_survivor_backlog_rises(self, samples):
        pre = max((s for s in samples if s.t <= 4.0), key=lambda s: s.t)
        window = [s for s in samples if 4.0 < s.t < 6.0]
        pre_backlog = pre.row(0)[2] + pre.row(0)[3]
        peak = max(s.row(0)[2] + s.row(0)[3] for s in window)
        assert peak > pre_backlog

    def test_recovery_restores_fleet_counts(self, samples):
        post = [s for s in samples if s.t >= 6.5]
        assert post and all(s.fleet[0] == 2 and s.fleet[3] == 0 for s in post)


class TestIterationLogWiring:
    def test_solo_observer_attaches_log(self):
        report, observer = run_traced(
            _spec(
                system="adaserve",
                rps=4.0,
                duration_s=6.0,
                obs=ObsSpec(trace=False, iteration_log=True),
            )
        )
        assert observer.collector is None and observer.sampler is None
        log = observer.iteration_logs[0]
        # Not every loop iteration records (drain steps don't), but the
        # bulk of the run must be logged without any manual wiring.
        assert 0 < len(log) <= report.iterations
        assert log.of_kind("speculative")

    def test_crash_replacement_appends_to_same_log(self):
        # AdaServe is the one scheduler that records iteration telemetry.
        kw = dict(_CHAOS_KW, system="adaserve")
        _report, observer = run_traced(
            _spec(**kw, obs=ObsSpec(trace=True, iteration_log=True))
        )
        # Replica 1's log spans its pre-crash and replacement engines:
        # records exist both before the crash (t < 4) and after the
        # restart (t > 6), keyed by the one replica index.
        times = [rec.time_s for rec in observer.iteration_logs[1].records]
        assert any(t < 4.0 for t in times)
        assert any(t > 6.0 for t in times)

    def test_series_export_includes_logs(self):
        _report, observer = run_traced(
            _spec(
                system="adaserve",
                rps=4.0,
                duration_s=6.0,
                obs=ObsSpec(trace=True, iteration_log=True),
            )
        )
        payload = series_to_dict(observer)
        assert payload["samples"]
        assert payload["iteration_logs"]["0"]
        rec = payload["iteration_logs"]["0"][0]
        assert {"time_s", "kind", "batch_size", "latency_s"} <= rec.keys()


class TestSlowestRequests:
    @staticmethod
    def _finished(rid: int, arrival: float, finish: float):
        from repro.serving.request import RequestState

        req = make_request(rid=rid, arrival=arrival)
        req.finish_time = finish
        req.state = RequestState.FINISHED
        return req

    def test_unfinished_rank_first(self):
        fast = self._finished(1, 0.0, 1.0)
        slow = self._finished(2, 0.0, 9.0)
        stuck = make_request(rid=3, arrival=5.0)
        ranked = slowest_requests([fast, slow, stuck], n=2)
        assert [r.rid for r in ranked] == [3, 2]

    def test_table_formats(self):
        req = self._finished(1, 0.0, 2.0)
        plain = format_slowest_table([req])
        md = format_slowest_table([req], markdown=True)
        assert "rid" in plain and "finished" in plain
        assert md.startswith("| rid |")
        assert format_slowest_table([]) == "(no requests)"


class TestTraceCLI:
    ARGS: ClassVar[list[str]] = [
        "trace",
        "--replicas", "2",
        "--faults", "crash:at=4,replica=1,restart=2",
        "--duration", "10",
        "--rps", "14",
        "--system", "vllm",
        "--seed", "0",
    ]

    def test_end_to_end_and_deterministic(self, tmp_path, capsys):
        from repro.cli import main

        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            series = tmp_path / f"series-{name}"
            argv = [*self.ARGS, 
                "--out", str(out),
                "--series-out", str(series),
                "--iteration-log",
            ]
            assert main(argv) == 0
            outs.append((out.read_bytes(), series.read_bytes()))
        assert outs[0] == outs[1]
        payload = json.loads(outs[0][0])
        assert any(
            e.get("name") == "incident" for e in payload["traceEvents"]
        )

    def test_markdown_table_on_stdout(self, tmp_path, capsys):
        from repro.cli import main

        argv = [*self.ARGS, "--markdown", "--out", str(tmp_path / "t.json")]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.lstrip().startswith("| rid |")
