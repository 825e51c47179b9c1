"""One workload process: set up, then run the closed loop of CLI calls.

Started by ``run.py`` as a fresh interpreter for each set-up sample and each
measured run, so set-up (interpreter, ``import wayaudit``, input generation and
one warm-up call) is paid and timed in full every time. Prints one JSON object
on its last stdout line.

Modes:
  setup    stop once set-up is done; report when that was.
  measure  untraced closed loop for --seconds, in whole cycles, and at least
           over the calls that make up the output digest.
  trace    an untraced loop over about a third of --seconds, then the same
           calls again with every wayaudit function wrapped in spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import metrics
import spans
import speed
from workloads import CONTROL_HIT, WORKLOADS, Call, Outcome

TRACE_SHARE = 1 / 3


def run_call(cli, call: Call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(call.argv)
        end = time.perf_counter()
    csv = Path(call.csv_path).read_bytes() if call.csv_path and code == 0 else b""
    return Outcome(code, out.getvalue(), err.getvalue(), csv, start, end)


def digest(outcome: Outcome) -> bytes:
    h = hashlib.sha256()
    h.update(str(outcome.code).encode())
    h.update(outcome.stdout.encode())
    h.update(outcome.stderr.encode())
    h.update(outcome.csv)
    return h.digest()


class Loop:
    """Closed loop: the next call starts only after the previous one returned.

    ``latencies`` are wall seconds of ``cli.main`` minus the speedometer's
    ticks inside them; ``kernel`` holds the reference-kernel seconds around
    each call.
    """

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.intervals: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.work: list[int] = []
        self.digests: list[bytes] = []
        self.facts: list[dict] = []
        self.errors: list[str] = []
        self.failed: list[bool] = []
        self.bytes_out = 0

    def step(self, index: int) -> None:
        call = self.workload.call(index)
        outcome = run_call(self.cli, call)
        facts = self.workload.check(call, outcome)
        if facts.error is not None:
            self.errors.append(facts.error)
        self.failed.append(facts.error is not None)
        self.intervals.append((outcome.start, outcome.end))
        self.work.append(call.work)
        self.digests.append(digest(outcome))
        self.facts.append(facts.values)
        self.bytes_out += len(outcome.stdout.encode()) + len(outcome.csv)

    def run_for(self, seconds: float) -> None:
        cycle = self.workload.cycle
        with speed.Speedometer() as meter:
            start = time.perf_counter()
            index = 0
            while index % cycle or index < self.workload.digest_calls or time.perf_counter() - start < seconds:
                self.step(index)
                index += 1
        self._timed(meter)

    def run_count(self, count: int) -> None:
        with speed.Speedometer() as meter:
            for index in range(count):
                self.step(index)
        self._timed(meter)

    def _timed(self, meter) -> None:
        for start, end in self.intervals:
            self.latencies.append(end - start - meter.ticks_in(start, end))
            self.kernel.append(meter.kernel_near(start, end))

    def scaled_seconds(self) -> float:
        """All call time, at reference speed."""
        return sum(t * speed.REFERENCE_KERNEL_S / k for t, k in zip(self.latencies, self.kernel))

    def output_sha256(self) -> str:
        return hashlib.sha256(b"".join(self.digests[: self.workload.digest_calls])).hexdigest()


def optimize_figures(loop: Loop) -> dict:
    blocked = [f["floor"] for f in loop.facts if f.get("case") == "blocked"]
    control = [f["floor"] for f in loop.facts if f.get("case") == "control"]
    if not blocked:
        return {}
    steps = [f["accepted_steps"] for f in loop.facts]
    return {
        "commutant.search.restart_s": loop.scaled_seconds() / sum(loop.work),
        "commutant.search.accepted_steps": sum(steps) / len(steps),
        "commutant.search.floor_spread": max(blocked) - min(blocked),
        "commutant.control_hit_ratio": sum(f <= CONTROL_HIT for f in control) / len(control),
    }


def numpy_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "version": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def conforming_ratio(loop: Loop) -> float:
    count = sum(f.get("count", 0) for f in loop.facts)
    return sum(f.get("conforming", 0) for f in loop.facts) / count if count else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: save the span records to this .npz file")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from wayaudit import cli

    os.chdir(args.root)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    warmup = workload.warmup()
    warmup_facts = workload.check(warmup, run_call(cli, warmup))
    ready = time.monotonic()
    result = {
        "ready": ready,
        "setup_kernel": statistics.median(speed.reference_kernel() for _ in range(5)),
        "errors": [] if warmup_facts.error is None else [warmup_facts.error],
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    loop = Loop(cli, workload)
    if args.mode == "measure":
        loop.run_for(args.seconds)
        result.update(
            latencies=loop.latencies,
            kernel=loop.kernel,
            work=loop.work,
            cycle=workload.cycle,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **optimize_figures(loop),
        )
    else:
        loop.run_for(args.seconds * TRACE_SHARE)
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        traced = Loop(cli, workload)
        try:
            traced.run_count(len(loop.latencies))
        finally:
            undo()
        for i, (a, b) in enumerate(zip(loop.digests, traced.digests)):
            if a != b:
                loop.errors.append(f"{workload.call(i).tag}: traced output differs from untraced output")
                loop.failed[i] = True
        loop.errors.extend(traced.errors)
        loop.failed = [a or b for a, b in zip(loop.failed, traced.failed)]
        table = tracer.table()
        ops = sum(traced.work)
        extras = {
            "cli.bytes_out": traced.bytes_out / ops,
            "theorem.conforming_ratio": conforming_ratio(traced),
            "trace.overhead_ratio": traced.scaled_seconds() / loop.scaled_seconds(),
            "cli.self_share_d45": d45_cli_share(table, tracer.names, workload, len(traced.latencies)),
            **optimize_figures(loop),
        }
        profile = spans.self_times(table, tracer.names, metrics.group_of(tracer.names))
        scale = traced.scaled_seconds() / sum(traced.latencies)
        result.update(per_layer=metrics.per_layer(profile, ops, scale, extras), profile=profile)
        if args.spans:
            np.savez(args.spans, records=table, names=np.array(tracer.names))

    # The warm-up call is gated and counted like any other.
    result.update(
        attempted=1 + len(loop.failed),
        failed=int(warmup_facts.error is not None) + sum(loop.failed),
        errors=result["errors"] + loop.errors[:20],
        output_sha256=loop.output_sha256(),
        numpy=numpy_build(),
    )
    print(json.dumps(result))
    return 0


def d45_cli_share(table, names, workload, calls: int) -> float:
    """Share of cli.* self time in the calls on the 5x9 (D = 45) model."""
    if workload.name != "inspect-models":
        return 0.0
    root_ids = np.sort(table[table[:, 1] == 0, 0])
    wanted = [root_ids[i] for i in range(calls) if workload.call(i).tag.endswith(":inspect-5x9")]
    profile = spans.self_times(table[np.isin(spans.root_of(table), wanted)], names, [])
    own = sum(v for n, v in profile["self_ns"].items() if n.startswith("cli."))
    return own / profile["root_ns"]


if __name__ == "__main__":
    sys.exit(main())
