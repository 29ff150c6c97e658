"""The benchmark's three workloads and the simulated-outcome metrics.

A workload is a fixed system configuration plus a shape of input: ``shards``
independent arrival traces of ``duration_s`` simulated seconds each.  Shard
``k`` of a run with seed ``n`` is generated from a seed derived from
``(workload, n, k)``, so one ``--seed`` fixes every input and two seeds give
unrelated inputs.  One *pass* simulates every shard fresh through
``run_spec``; the simulated metrics pool the requests of all shards.

Only ``repro`` public entry points are used here: ``ExperimentSpec``,
``build_setup``, ``build_workload``, ``run_spec`` and ``report_to_json``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 0
#: Seed kept out of tuning: a later claim is re-checked on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ExperimentSpec.create`` keywords other than duration and seed.
    spec: dict = field(default_factory=dict)
    shards: int = 1
    duration_s: float = 30.0
    #: Percentile of the tail metrics: the highest half-percent step that
    #: leaves at least ten requests beyond it at this workload's size.
    tail_pct: float = 99.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="adaserve-solo",
            why=(
                "one AdaServe engine, bursty trace, Table 2 mix, 3.6 rps: the "
                "speculate/select/verify pipeline and draft substrate; no "
                "router, prefix cache or plain decode"
            ),
            spec=dict(system="adaserve", rps=3.6, trace="bursty"),
            shards=8,
            duration_s=15.0,
            tail_pct=97.0,
        ),
        Workload(
            name="sarathi-fleet",
            why=(
                "8-replica Sarathi fleet, least-loaded router, diurnal trace, "
                "12 rps: fleet driver, routing, chunked-prefill mixed_step, "
                "private KV; no speculation or prefix hashing"
            ),
            spec=dict(
                system="sarathi",
                rps=12.0,
                trace="diurnal",
                replicas=8,
                router="least-loaded",
            ),
            shards=1,
            duration_s=75.0,
            tail_pct=98.5,
        ),
        Workload(
            name="sessions-prefix",
            why=(
                "16-replica vLLM fleet, prefix cache, prefix-affinity router, "
                "sessions trace, streaming metrics, 40 rps: prefix block keys, "
                "shared KV blocks, plain decode"
            ),
            spec=dict(
                system="vllm",
                rps=40.0,
                trace="sessions",
                replicas=16,
                router="prefix-affinity",
                prefix_cache=True,
                metrics="streaming",
            ),
            shards=1,
            duration_s=40.0,
            tail_pct=98.5,
        ),
    )
}


def shard_seed(workload: str, seed: int, shard: int) -> int:
    """Workload seed of one shard: a pure function of its three inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}:{shard}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def specs(workload: Workload, seed: int) -> list:
    """The experiment specs of one pass, one per shard."""
    from repro.analysis.spec import ExperimentSpec

    return [
        ExperimentSpec.create(
            model="llama70b",
            duration_s=workload.duration_s,
            seed=shard_seed(workload.name, seed, k),
            **workload.spec,
        )
        for k in range(workload.shards)
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def outcome(reports: list, generated: int, tail_pct: float) -> dict:
    """Simulated-system metrics pooled over the shards of one pass.

    ``generated`` is the number of requests the workload generator made;
    a request missing from the reports counts as failed.
    """
    requests = [r for report in reports for r in report.requests]
    finished = [r for r in requests if r.is_finished]
    coding = [r for r in requests if r.category == "coding"]
    attained_tokens = sum(report.metrics.attained_tokens for report in reports)
    span_s = sum(report.metrics.span_s for report in reports)
    ttft = [r.ttft for r in finished]
    tpot = [r.avg_tpot for r in finished]
    failed = generated - len(finished)
    return {
        "attempted": generated,
        "failed": failed,
        "slo_attainment": sum(r.attained for r in requests) / generated,
        "slo_attainment_coding": sum(r.attained for r in coding) / len(coding),
        "goodput_tok_s": attained_tokens / span_s,
        "ttft_p50_s": percentile(ttft, 50.0),
        "ttft_tail_s": percentile(ttft, tail_pct),
        "tpot_p50_s": percentile(tpot, 50.0),
        "tpot_tail_s": percentile(tpot, tail_pct),
        "failed_share": failed / generated,
        "tail_pct": tail_pct,
    }
