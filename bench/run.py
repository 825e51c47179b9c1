"""wayaudit benchmark: four CLI workloads, measured end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload audit-2x3 --seed 1 --seconds 20 --trace 0

One closed-loop client drives ``wayaudit.cli.main`` in a fresh worker process
(see worker.py); set-up is sampled in SETUP_SAMPLES fresh processes and its
median reported. ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer split. Human-readable lines come first; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. Everything a run
writes stays under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import speed
from workloads import FIXTURES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
DEADLINE_S = 170
# One BLAS thread: a single-user verifier on a shared 2-core machine, and no
# thread pool whose scheduling the numbers would depend on.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Printed with the end-to-end metrics on optimize-2x3; see README.md for why
# they are not end-to-end metrics of BENCHMARK.json.
OPTIMIZE_NOTES = {"commutant.search.floor_spread": "objective", "commutant.control_hit_ratio": "ratio"}


class BenchError(Exception):
    pass


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wayaudit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(args, mode: str, deadline: float, spans: str | None = None) -> tuple[float, dict]:
    """Start one worker, wait for it; returns (set-up seconds, its result)."""
    workdir = (OUT / "work").relative_to(ROOT)
    argv = [
        sys.executable, "-B", str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--root", str(ROOT), "--workdir", str(workdir),
    ]
    if spans:
        argv += ["--spans", spans]
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    kernel_before = statistics.median(speed.reference_kernel() for _ in range(5))
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Set-up lies between two timings of the kernel: one here, one in the worker.
    result["setup_kernel"] = (kernel_before + result["setup_kernel"]) / 2
    return result["ready"] - started, result


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """End-to-end metrics at reference speed, the same as measured, and notes.

    ``setups`` holds (set-up seconds, kernel seconds around that set-up).
    """
    def figures(latencies, setup):
        tail = metrics.tail_quantile(len(latencies))
        return {
            "setup_s": setup,
            "throughput": metrics.throughput(latencies, result["work"], result["cycle"]),
            "call_p50_ms": metrics.percentile(latencies, 0.5) * 1e3,
            "call_p90_ms": metrics.percentile(latencies, tail) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }

    ref = speed.REFERENCE_KERNEL_S
    scaled = [t * ref / k for t, k in zip(result["latencies"], result["kernel"])]
    values = figures(scaled, statistics.median(s * ref / k for s, k in setups))
    raw = figures(result["latencies"], statistics.median(s for s, _ in setups))
    notes = {
        "calls": len(scaled),
        "call_p90_ms_is_percentile": round(100 * metrics.tail_quantile(len(scaled))),
        "setup_samples": setups,
        "machine_speed": ref / statistics.median(result["kernel"]),
    }
    unit = metrics.END_TO_END
    return (
        {name: {"value": values[name], "unit": unit[name]} for name in unit},
        {name: {"value": raw[name], "unit": unit[name]} for name in unit},
        notes,
    )


def check_digest(workload: str, seed: int, sha: str) -> str | None:
    """Outputs of one seed must repeat byte for byte across runs in this checkout."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{workload}:{seed}"
    if known.setdefault(key, sha) != sha:
        return f"outputs differ from an earlier run of seed {seed}: {sha} != {known[key]}"
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in ("src/wayaudit/cli.py", *FIXTURES) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a wayaudit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": THREAD_ENV,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "loadavg_before": os.getloadavg(),
    }

    try:
        if args.trace:
            _, result = run_worker(args, "trace", deadline, spans=str(OUT / f"{stem}.spans.npz"))
            reported, notes = result["per_layer"], {"profile": result["profile"]}
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                setup_s, result = run_worker(args, "setup", deadline)
                setups.append((setup_s, result["setup_kernel"]))
            setup_s, result = run_worker(args, "measure", deadline)
            reported, measured, notes = end_to_end(result, setups + [(setup_s, result["setup_kernel"])])
            notes["as_measured"] = measured
            notes.update(latencies=result["latencies"], kernel=result["kernel"])
            notes.update((name, result[name]) for name in OPTIMIZE_NOTES if name in result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = list(result["errors"])
    digest_error = check_digest(args.workload, args.seed, result["output_sha256"])
    if digest_error:
        errors.append(digest_error)
    provenance["loadavg_after"] = os.getloadavg()
    provenance["numpy"] = result["numpy"]
    summary = {
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }
    details = {**summary, "provenance": provenance, "output_sha256": result["output_sha256"], "errors": errors, **notes}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))

    unit = WORKLOADS[args.workload].op_unit
    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    measured = notes.get("as_measured", {})
    if measured:
        print(f"# times at reference speed; as measured, at {notes['machine_speed']:.3f} x that speed, in brackets")
    lines = [(name, m["value"], f"{unit}/s" if name == "throughput" else m["unit"]) for name, m in reported.items()]
    lines.append(("error_rate", summary["failed"] / summary["attempted"], f"of {summary['attempted']} calls"))
    lines += [(name, notes[name], unit) for name, unit in OPTIMIZE_NOTES.items() if name in notes]
    for name, value, label in lines:
        plain = f"  ({measured[name]['value']:.6g})" if name in measured else ""
        print(f"{name:40s} {value:14.6g} {label:12s}{plain}")
    if "call_p90_ms_is_percentile" in notes:
        print(f"# call_p90_ms is p{notes['call_p90_ms_is_percentile']} of {notes['calls']} calls")
    print(f"# output sha256 {result['output_sha256']}; load {provenance['loadavg_before'][0]:.2f} -> "
          f"{provenance['loadavg_after'][0]:.2f}; details in {OUT.relative_to(ROOT) / (stem + '.json')}")
    for error in errors:
        print(f"# FAILED {error}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
