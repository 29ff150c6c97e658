"""AdaServe simulator benchmark: simulator speed plus multi-SLO outcomes.

Usage (from the repository root)::

    python3 slobench/run.py --workload adaserve-solo --seed 0 --seconds 20 --trace 0
    python3 slobench/run.py --workload all --trace 1

Each workload runs in fresh child processes (``worker.py``), one child
at a time.  With ``--trace 0``, two probe children measure set-up and
cold-pass time around the measured child, and the end-to-end metrics
are printed.  With ``--trace 1``, one traced child prints the per-layer
metrics and runs the invariant sanitizer.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits with status 1, a missing simulator source tree with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: :func:`startup_probe` time that defines reference speed for set-up and
#: the cold pass (about 0.1 s on a 2.1 GHz x86 vCPU).
REFERENCE_STARTUP_S = 0.1
#: Where span files and the digest record go (inside the checkout).
OUT_DIR = ROOT / ".slobench"

#: (name, unit, gated) of every end-to-end metric, in print order.  Only
#: gated metrics go into the final JSON line and ``BENCHMARK.json``; see
#: README.md for why the others are printed but not gated.
END_TO_END = (
    ("setup_s", "s", True),
    ("cold_run_s", "s", True),
    ("sim_req_per_s", "req/s", True),
    ("sim_iters_per_s", "iter/s", True),
    ("peak_rss_mb", "MB", True),
    ("slo_attainment", "ratio", True),
    ("slo_attainment_coding", "ratio", True),
    ("goodput_tok_s", "tok/sim_s", True),
    ("ttft_p50_s", "sim_s", False),
    ("ttft_tail_s", "sim_s", False),
    ("tpot_p50_s", "sim_s", True),
    ("tpot_tail_s", "sim_s", True),
    ("failed_share", "ratio", False),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument(
        "--seed",
        type=int,
        default=workloads.DEFAULT_SEED,
        help=f"workload seed (default {workloads.DEFAULT_SEED}; held-out seed: "
        f"{workloads.HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # Rotate the order by seed so no workload always runs first.
    shift = args.seed % len(names)
    args.names = names[shift:] + names[:shift]
    return args


def child(mode: str, name: str, args: argparse.Namespace, spans: Path | None = None):
    """Run one worker child to completion; returns (spawn_time, result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name} {mode} child exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return spawned, json.loads(lines[-1])


def startup_probe() -> float:
    """Seconds to start a fresh interpreter that imports numpy.

    Set-up and the cold pass are dominated by the same kind of work
    (process start, imports, allocation-heavy first touches), which a
    busy host slows more than a tight loop.  Their times are scaled by
    ``REFERENCE_STARTUP_S`` over the mean of this probe before and after
    the child that measured them.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


def fingerprint() -> str:
    """Hash of the simulator and workload sources: digests compare within one."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), HERE / "workloads.py"]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest_record(name: str, seed: int, digest: str) -> list[str]:
    """Same sources + same seed must give the same digest as earlier runs."""
    record_path = OUT_DIR / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{fingerprint()}:{name}:{seed}"
    previous = record.setdefault(key, digest)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    if previous != digest:
        return [f"digest {digest} differs from an earlier run's {previous}"]
    return []


def measure(name: str, args: argparse.Namespace) -> dict:
    """All children of one workload; returns metrics, counts and errors."""
    if args.trace:
        res = child("trace", name, args, OUT_DIR / f"spans-{name}-{args.seed}")[1]
        runs = [res]
    else:
        # A cold probe before the measured child and one after it, so that
        # a slow spell of the host hits fewer of the three cold samples.
        runs = []
        before = startup_probe()
        for mode in ("cold", "run", "cold"):
            spawned, run = child(mode, name, args)
            after = startup_probe()
            run["setup_s"] = run["ready_monotonic"] - spawned
            run["scale"] = 2 * REFERENCE_STARTUP_S / (before + after)
            before = after
            runs.append(run)
        res = runs[1]
    errors = list(res["errors"])
    for probe in runs:
        if probe["digest"] != res["digest"]:
            errors.append(f"cold probe digest {probe['digest']} != {res['digest']}")
    errors += check_digest_record(name, args.seed, res["digest"])
    out = res["outcome"]
    if args.trace:
        metrics = dict(res["layers"])
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in runs),
            "cold_run_s": statistics.median(r["cold_run_s"] * r["scale"] for r in runs),
            "sim_req_per_s": statistics.median(res["requests"] / s for s in res["warm_s"]),
            "sim_iters_per_s": statistics.median(res["iterations"] / s for s in res["warm_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics.update({k: out[k] for k, _, _ in END_TO_END if k in out})
    return {
        "seed": args.seed,
        "metrics": metrics,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": errors,
        "digest": res["digest"],
        "tail_pct": out["tail_pct"],
        "passes": res["passes"],
        "self_s": res.get("self_s", {}),
        "cold_self_s": res.get("cold_self_s", {}),
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.startswith("serving.sim_"):
        return "sim_s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    if name.endswith("_mean"):
        return "seqs"
    if name.endswith("_tokens"):
        return "tokens"
    return "count"


def print_table(name: str, r: dict, trace: bool) -> None:
    """Every metric of one workload with its unit, then any failed check."""
    print(f"== {name}  seed {r['seed']}  digest {r['digest']}  ({r['passes']} measured passes)")
    if trace:
        units = {metric: layer_unit(metric) for metric in r["metrics"]}
    else:
        units = {metric: unit for metric, unit, _ in END_TO_END}
    for metric, unit in units.items():
        at = f"  at p{r['tail_pct']:g}" if metric.endswith("_tail_s") else ""
        print(f"  {metric:32s} {r['metrics'][metric]:>16.6g} {unit}{at}")
    if trace:
        for label, table in (("warm", r["self_s"]), ("cold", r["cold_self_s"])):
            print(f"  self time by span, {label} pass (s):")
            for span, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"    {span:30s} {seconds:10.4f}")
    for error in r["errors"]:
        print(f"  CHECK FAILED: {error}")


def result_metrics(r: dict, trace: bool) -> dict:
    """The metrics of the result line: per-layer, or the gated end-to-end."""
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in r["metrics"].items()}
    return {
        k: {"value": r["metrics"][k], "unit": unit} for k, unit, gated in END_TO_END if gated
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in args.names:
        try:
            results[name] = measure(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name} failed: {exc}", file=sys.stderr)
            return 1
        print_table(name, results[name], bool(args.trace))
    if len(results) == 1:
        (r,) = results.values()
        metrics = result_metrics(r, bool(args.trace))
    else:
        metrics = {
            f"{name}/{k}": v
            for name, r in results.items()
            for k, v in result_metrics(r, bool(args.trace)).items()
        }
    correct = not any(r["errors"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values()) if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
