"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file as its only child, one at a time, and reads
the JSON object it prints as its last stdout line.  Every mode first
imports the simulator and builds every shard's setup and trace, then
reports the monotonic time at which the first simulated iteration could
start, and runs one cold pass.  Then:

- ``cold``: stops (a probe for set-up and cold-pass time);
- ``run``: runs warm passes until ``--seconds`` have elapsed;
- ``trace``: traces the cold pass too (see :mod:`layers`), runs
  untraced and traced warm passes in alternation until ``--seconds``
  have elapsed, then one pass under the runtime invariant sanitizer.

A pass runs ``run_spec`` + ``report_to_json`` on every shard and times
each shard (see :func:`run_pass`).  Every pass of a run must produce the same digest: the
SHA-256 over the shards' ``report_to_json`` texts, each followed by a
NUL byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time

import layers
import workloads


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cold", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--spans", help="trace mode: write spans to <SPANS>-cold.jsonl and <SPANS>-warm.jsonl"
    )
    return parser.parse_args(argv)


def set_up(workload: workloads.Workload, seed: int):
    """Imports plus every shard's ``build_setup`` and ``build_workload``."""
    from repro.analysis.harness import build_setup
    from repro.analysis.runner import build_workload

    specs = workloads.specs(workload, seed)
    generated = 0
    for spec in specs:
        setup = build_setup(
            spec.system.model, seed=spec.workload.seed, prefix_cache=spec.system.prefix_cache
        )
        generated += len(build_workload(setup, spec))
    return specs, generated


#: Iterations of :func:`speed_probe`: about 20 ms on a 2.1 GHz x86 vCPU.
PROBE_ITERATIONS = 150_000
#: Probe time that defines reference speed.  Warm shard walls are scaled
#: by ``REFERENCE_PROBE_S / probe``, with the probe taken around each
#: shard, so that a host which runs at a different speed from one minute
#: to the next (a busy sibling core) reports comparable throughput.
REFERENCE_PROBE_S = 0.020


def speed_probe() -> float:
    """Seconds the host takes for a fixed pure-Python dict loop."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 4095] = table.get(i & 8191, 0) + i
    return time.perf_counter() - start


def run_pass(specs, export_time: list | None = None, invariants=None):
    """Simulate every shard once; returns (walls, scales, digest, reports).

    ``walls[k]`` covers ``run_spec`` + ``report_to_json`` of shard ``k``;
    ``walls[k] * scales[k]`` is that time at reference speed, from the
    mean of the probes before and after the shard.  ``export_time``
    collects the ``report_to_json`` times.
    """
    from repro.analysis.export import report_to_json
    from repro.analysis.runner import run_spec

    gc.collect()
    digest = hashlib.sha256()
    walls, scales, reports = [], [], []
    before = speed_probe()
    for spec in specs:
        checker = invariants() if invariants is not None else None
        start = time.perf_counter()
        report = run_spec(spec, invariants=checker)
        exported = time.perf_counter()
        text = report_to_json(report)
        end = time.perf_counter()
        after = speed_probe()
        scales.append(2 * REFERENCE_PROBE_S / (before + after))
        before = after
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
        if export_time is not None:
            export_time.append(end - exported)
        walls.append(end - start)
        reports.append(report)
    return walls, scales, f"sha256:{digest.hexdigest()}", reports


def invariant_pass(specs, generated: int, digest: str) -> list[str]:
    """Sanitized pass: no violation, same digest, every request accounted."""
    from repro.check.invariants import InvariantChecker, InvariantViolation

    try:
        _, _, checked, reports = run_pass(specs, invariants=InvariantChecker)
    except InvariantViolation as exc:
        return [f"invariant violated: {exc}"]
    errors = []
    if checked != digest:
        errors.append(f"sanitized pass digest {checked} != {digest}")
    seen = sum(len(report.requests) for report in reports)
    rids = [len({r.rid for r in report.requests}) for report in reports]
    if seen != generated or sum(rids) != generated:
        errors.append(f"{generated} requests generated but {seen} reported ({sum(rids)} distinct)")
    return errors


def layer_metrics(tracer: layers.LayerTracer, reports, export_s: float):
    """The per-layer metrics of one traced pass, and self time per span name."""
    table = tracer.by_name()
    sums = tracer.sums
    counts = tracer.counts

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    def ratio(num, den):
        return num / den if den else 0.0

    steps = sorted(row("serving.step")["durations"])
    phases = {"prefill": 0.0, "decode": 0.0, "speculation": 0.0, "verification": 0.0, "scheduling": 0.0}
    for engine in tracer.engines:
        for phase in phases:
            phases[phase] += getattr(engine.phase_times, f"{phase}_s")
    requests = [r for report in reports for r in report.requests]
    prompt_tokens = sum(r.prompt_len for r in requests)
    hits = sum(report.metrics.prefix_hit_requests for report in reports)
    saved = sum(report.metrics.prefill_tokens_saved for report in reports)
    m = {
        "workloads.build_s": row("workloads.build")["total_s"],
        "workloads.requests": sums["workloads.requests"],
        "cluster.route_calls": row("cluster.route")["calls"],
        "cluster.route_s": row("cluster.route")["total_s"],
        "cluster.driver_self_s": row("cluster.driver")["self_s"],
        "serving.driver_self_s": row("serving.driver")["self_s"],
        "serving.step_calls": row("serving.step")["calls"],
        "serving.step_self_s": row("serving.step")["self_s"],
        "serving.step_p50_us": workloads.percentile(steps, 50.0) * 1e6 if steps else 0.0,
        "serving.step_p99_us": workloads.percentile(steps, 99.0) * 1e6 if steps else 0.0,
        "serving.decode_calls": row("serving.decode")["calls"],
        "serving.decode_s": row("serving.decode")["total_s"],
        "serving.decode_batch_mean": ratio(sums["serving.decode_batch"], row("serving.decode")["calls"]),
        "serving.mixed_step_calls": row("serving.mixed_step")["calls"],
        "serving.mixed_step_s": row("serving.mixed_step")["total_s"],
        "serving.mixed_batch_mean": ratio(sums["serving.mixed_batch"], row("serving.mixed_step")["calls"]),
        "serving.prefill_calls": row("serving.prefill")["calls"],
        "serving.prefill_s": row("serving.prefill")["total_s"],
        "serving.preemptions": counts["serving.preemptions"],
        "serving.kv_ensure_calls": counts["serving.kv_ensure"],
        "serving.kv_ensure_s": tracer.estimated_s("serving.kv_ensure"),
        "serving.kv_free_calls": counts["serving.kv_free"],
        "serving.metrics_s": row("serving.metrics")["total_s"],
        "serving.sim_prefill_s": phases["prefill"],
        "serving.sim_decode_s": phases["decode"],
        "serving.sim_speculation_s": phases["speculation"],
        "serving.sim_verification_s": phases["verification"],
        "serving.sim_scheduling_s": phases["scheduling"],
        "core.iterations": row("core.iteration")["calls"],
        "core.speculate_s": row("core.speculate")["total_s"],
        "core.select_s": row("core.select")["total_s"],
        "core.verify_s": row("core.verify")["total_s"],
        "core.candidates_scanned": sums["core.candidates_scanned"],
        "core.draft_tokens": sums["core.draft_tokens"],
        "core.verify_tokens": sums["core.verify_tokens"],
        "core.accepted_tokens": sums["core.accepted_tokens"],
        "core.accept_ratio": ratio(sums["core.accepted_tokens"], sums["core.verify_tokens"]),
        "model.prefetch_draft_s": row("model.prefetch_draft")["total_s"],
        "model.prefetch_target_s": row("model.prefetch_target")["total_s"],
        "model.target_sample_calls": counts["model.target_sample"],
        "hardware.roofline_calls": row("hardware.roofline")["calls"],
        "hardware.roofline_s": row("hardware.roofline")["total_s"],
        "prefixcache.block_keys_calls": row("prefixcache.block_keys")["calls"],
        "prefixcache.block_keys_s": row("prefixcache.block_keys")["total_s"],
        "prefixcache.lock_s": row("prefixcache.lock")["total_s"],
        "prefixcache.commit_s": row("prefixcache.commit")["total_s"],
        "prefixcache.hit_request_ratio": ratio(hits, len(requests)),
        "prefixcache.saved_token_ratio": ratio(saved, prompt_tokens),
        "analysis.export_s": export_s,
    }
    self_s = {name: r["self_s"] for name, r in table.items()}
    return m, self_s


def warm_passes(specs, seconds: float, check) -> list[float]:
    """Untraced passes while the next one is expected to end in the window.

    Returns each pass's time at reference speed.
    """
    scaled: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while not scaled or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        walls, scales, digest, _ = run_pass(specs)
        last = time.perf_counter() - t0
        check(digest, f"warm pass {len(scaled) + 1}")
        scaled.append(sum(w * k for w, k in zip(walls, scales)))
    return scaled


def traced_passes(specs, seconds: float, check, spans_prefix: str) -> dict:
    """Untraced and traced passes in alternation, as :func:`warm_passes`."""
    plain, traced, per_pass, self_times = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while not traced or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        walls, scales, digest, _ = run_pass(specs)
        check(digest, "untraced pass")
        plain.append(sum(w * k for w, k in zip(walls, scales)))
        tracer = layers.LayerTracer()
        export: list[float] = []
        tracer.install()
        try:
            walls, scales, digest, reports = run_pass(specs, export_time=export)
        finally:
            tracer.uninstall()
        last = time.perf_counter() - t0
        check(digest, "traced pass")
        traced.append(sum(w * k for w, k in zip(walls, scales)))
        metrics, self_s = layer_metrics(tracer, reports, sum(export))
        per_pass.append(metrics)
        self_times.append(self_s)
        if len(traced) == 1:
            tracer.write_spans(f"{spans_prefix}-warm.jsonl")
    result = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    result["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return {
        "layers": result,
        "self_s": {n: statistics.median(s.get(n, 0.0) for s in self_times) for n in self_times[0]},
        "passes": len(traced),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    specs, generated = set_up(workload, args.seed)
    ready = time.monotonic()
    result = {}
    if args.mode == "trace":
        # The memos fill during the cold pass, so its self times show where
        # cold_run_s goes; its wall time is not reported.
        tracer = layers.LayerTracer()
        tracer.install()
        try:
            walls, _, digest, reports = run_pass(specs)
        finally:
            tracer.uninstall()
        result["cold_self_s"] = {n: r["self_s"] for n, r in tracer.by_name().items()}
        tracer.write_spans(f"{args.spans}-cold.jsonl")
        del tracer
    else:
        walls, _, digest, reports = run_pass(specs)
    result |= {
        "ready_monotonic": ready,
        "cold_run_s": sum(walls),
        "digest": digest,
        "outcome": workloads.outcome(reports, generated, workload.tail_pct),
        "requests": sum(len(r.requests) for r in reports),
        "iterations": sum(r.iterations for r in reports),
    }
    del reports
    errors: list[str] = []

    def check(pass_digest: str, label: str) -> None:
        if pass_digest != digest:
            errors.append(f"{label} digest {pass_digest} != cold digest {digest}")

    if args.mode == "run":
        result["warm_s"] = warm_passes(specs, args.seconds, check)
        result["passes"] = len(result["warm_s"])
    elif args.mode == "trace":
        result.update(traced_passes(specs, args.seconds, check, args.spans))
        errors += invariant_pass(specs, generated, digest)
    result["errors"] = errors
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
