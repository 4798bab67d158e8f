"""Benchmark of the nearsemiring workbench: time to a verdict, checked.

    python3 perfbench/run.py --workload corpus|ladder|enumerate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One process, one client, closed loop: each job starts when the previous one
returns, `threads=1` throughout. Passes over the workload's job list (in a
seeded order) repeat while the next one is expected to end within
`--seconds`, and at least one runs; every output is checked after its pass,
outside the timed region.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over fresh
interpreters that import the program and build the inputs), `wall_s` (median
time of one pass), `job_p50_ms` (median time of one job), `peak_rss_mb`.
`job_p90_ms` (where at least ten samples lie beyond it) and `failed_frac` are
printed on the summary lines above the result. Every time in these metrics
is scaled to a nominal host speed by a reference measured around each job
(see hostspeed.py); the raw wall-clock pass times are printed too.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of the median traced pass plus one traced set-up: each `<layer>_ms`
is the self time of that layer's spans (span time minus the child spans it
covers), `cli.self_ms` is CLI job time outside every layer, and
`search.enumerate_ms` alone is inclusive; span times are raw. `trace.overhead_s`
is the traced minus the untraced median pass time, both scaled. The spans are
written to `perfbench/_work/trace_<workload>.jsonl`.

The metrics' names and units and the default `--seconds` are read from
BENCHMARK.json, which is edited by hand.

Maintenance:
    python3 perfbench/run.py --capture-expected   record CLI answers of this code
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import NOMINAL_S, OverLimit, SpeedProbe, reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (EXPECTED, LIMIT_S, ROOT, WORK, WORKLOADS, Job, Oracles,  # noqa: E402
                       import_program, prepare)

SETUP_PROBES = 7

# BENCHMARK.json is the one list of metrics, their units and the run length
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]]


@dataclass
class Outcome:
    seconds: float                  # wall-clock
    scaled: float                   # at nominal host speed
    status: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    result: Any = None
    error: Optional[str] = None


def run_job(job: Job, cli_main, tracer=None, limit: Optional[float] = None) -> Outcome:
    """Run one job; one that raises or runs past `limit` seconds fails, and
    the run goes on."""
    out, err = io.StringIO(), io.StringIO()
    status = result = error = None
    with SpeedProbe(limit) as probe:
        span = tracer.open("cli.main" if job.argv is not None else "job") if tracer else None
        try:
            if job.argv is not None:
                with redirect_stdout(out), redirect_stderr(err):
                    status = cli_main(list(job.argv))
            else:
                result = job.call()
        except (Exception, OverLimit) as exc:
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        finally:
            if tracer:
                tracer.close(span)
    return Outcome(probe.seconds, probe.scaled, status, out.getvalue(), err.getvalue(),
                   result, error)


def run_pass(jobs: list[Job], cli_main, limit: float,
             tracer=None) -> list[tuple[Job, Outcome]]:
    gc.collect()
    if tracer:
        tracer.install()
    try:
        outcomes = []
        for index, job in enumerate(jobs):
            if tracer:
                tracer.job = index
            outcomes.append((job, run_job(job, cli_main, tracer, limit)))
        return outcomes
    finally:
        if tracer:
            tracer.uninstall()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to ready: import the program and build the inputs.

    Each time is scaled to nominal host speed by the reference the probe
    measures right after it is ready, on its own processor.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - start
            reference = proc.stdout.readline()
            err = proc.stderr.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed: {err.strip()}")
        times.append(seconds * NOMINAL_S / float(reference))
    return times


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- per-layer aggregation ---------------------------------------------------


def layer_metrics(tracer) -> dict[str, float]:
    spans, self_t = tracer.spans, tracer.self_times()
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    emitted = admitted = 0
    enumerate_total = 0.0
    for span, own in zip(spans, self_t):
        name, attrs = span[0], span[6] or {}
        ms[name] = ms.get(name, 0.0) + own * 1000
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            attr[f"{name}.{key}"] = attr.get(f"{name}.{key}", 0) + value
        if name == "search.enumerate":
            enumerate_total += (span[2] - span[1]) * 1000
        if name == "axioms.check_axioms" and span[3] >= 0 \
                and spans[span[3]][0] == "search.enumerate":
            emitted += 1
            admitted += bool(attrs["ok"])
    models = attr.get("search.enumerate.models", 0)
    m = {
        "cli.self_ms": ms.get("cli.main", 0.0),
        "algfile.parse_calls": calls.get("algfile.parse", 0),
        "axioms.check_axioms_calls": calls.get("axioms.check_axioms", 0),
        "axioms.instances": attr.get("axioms.check_axioms.instances", 0),
        "congruences.principal_pairs": attr.get("congruences.all_congruences.pairs", 0),
        "congruences.con_size": attr.get("congruences.all_congruences.size", 0),
        "ideals.subset_masks": attr.get("ideals.all_ideals.masks", 0),
        "ideals.id_size": attr.get("ideals.all_ideals.size", 0),
        "center.ce_size": attr.get("center.center.size", 0),
        "center.subset_families": attr.get("center.central_laws.families", 0),
        "core.find_isomorphism_calls": calls.get("core.find_isomorphism", 0),
        "search.enumerate_ms": enumerate_total,
        "search.self_ms": ms.get("search.enumerate", 0.0),
        "search.emitted": emitted,
        "search.admitted": admitted,
        "search.admit_ratio": admitted / emitted if emitted else 0.0,
        "search.canonical_form_calls": calls.get("search.canonical_form", 0),
        "search.models": models,
        "search.dedup_hit_ratio": 1 - models / admitted if admitted else 0.0,
    }
    for name, unit in PER_LAYER:
        if unit == "ms" and name not in m:
            m[name] = ms.get(name[:-len("_ms")], 0.0)
    return m


# -- the run -----------------------------------------------------------------


def check_pass(outcomes, oracles: Oracles, failures: list[str]) -> int:
    failed = 0
    for job, outcome in outcomes:
        reason = oracles.check(job, outcome)
        if reason is not None:
            failed += 1
            failures.append(f"{job.key}: {reason}")
    return failed


def end_to_end(plain: list[list[float]], setup_times: list[float],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    wall = statistics.median(sum(times) for times in plain)
    samples = sorted(t for times in plain for t in times)
    p50 = statistics.median(samples)
    p90 = percentile(samples, 0.9)
    beyond = sum(1 for t in samples if t > p90)
    setup = statistics.median(setup_times)
    values = {"setup_s": setup, "wall_s": wall, "job_p50_ms": p50 * 1000,
              "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = [f"setup_s {setup:.4f} s (median of {len(setup_times)} fresh interpreters)",
               f"wall_s {wall:.4f} s (median of {len(plain)} passes, scaled)",
               f"job_p50_ms {p50 * 1000:.3f} ms (n={len(samples)})"]
    if beyond >= 10:
        summary.append(f"job_p90_ms {p90 * 1000:.3f} ms (n={len(samples)}, {beyond} beyond)")
    else:
        summary.append(f"job_p90_ms not reported: {beyond} of {len(samples)} samples "
                       "lie beyond it, fewer than 10")
    summary.append(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    return metrics, summary


def per_layer(plain: list[list[float]], traced: list[tuple[list[float], Tracer]],
              workload: str, seed: int) -> tuple[dict, list[str]]:
    """Layers of the median traced pass plus one traced set-up."""
    wall = statistics.median(sum(times) for times in plain)
    traced.sort(key=lambda item: sum(item[0]))
    times, tracer = traced[(len(traced) - 1) // 2]
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        span = setup_tracer.open("setup")
        prepare(workload, seed)
        setup_tracer.close(span)
    finally:
        setup_tracer.uninstall()
    tracer.write(WORK / f"trace_{workload}.jsonl", setup_tracer)
    layers = layer_metrics(tracer)
    for key, value in layer_metrics(setup_tracer).items():
        if not key.endswith("_ratio"):
            layers[key] += value
    traced_wall = sum(times)
    layers["trace.untraced_wall_s"] = wall
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - wall
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, [f"traced pass {traced_wall:.4f} s vs untraced {wall:.4f} s "
                     f"(median of {len(traced)} and {len(plain)})"]


def run(args) -> dict:
    ns = import_program()
    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []
    workload = prepare(args.workload, args.seed)
    workload.materialize()
    oracles = Oracles(workload, Path(args.expected))
    rng = random.Random(args.seed)
    home = os.getcwd()
    os.chdir(workload.cwd)

    plain: list[list[float]] = []
    traced: list[tuple[list[float], Tracer]] = []
    failures: list[str] = []
    attempted = failed = 0
    raw_walls: list[float] = []       # wall-clock time of every pass, for pacing
    try:
        start = time.perf_counter()
        # with --trace 1, untraced and traced passes alternate
        while True:
            tracer = Tracer() if args.trace and len(traced) < len(plain) else None
            outcomes = run_pass(workload.order(rng), ns.cli.main, LIMIT_S[args.workload],
                                tracer)
            attempted += len(outcomes)
            failed += check_pass(outcomes, oracles, failures)
            raw_walls.append(sum(o.seconds for _, o in outcomes))
            times = [o.scaled for _, o in outcomes]
            if tracer:
                traced.append((times, tracer))
            else:
                plain.append(times)
            # stop before a pass that would end after --seconds, once each kind has run
            if time.perf_counter() - start + statistics.median(raw_walls) > args.seconds \
                    and (not args.trace or traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        os.chdir(home)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced pass(es) "
          f"of {len(workload.jobs)} jobs, {attempted} jobs attempted, {failed} failed")
    print("passes, raw wall-clock (s): " + " ".join(f"{w:.3f}" for w in raw_walls))
    print("untraced passes, scaled (s): " + " ".join(f"{sum(t):.3f}" for t in plain))
    print(f"failed_frac {failed / attempted} ({failed}/{attempted})")
    if args.trace:
        metrics, summary = per_layer(plain, traced, args.workload, args.seed)
    else:
        metrics, summary = end_to_end(plain, setup_times, peak_rss_mb)
    for line in summary:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- maintenance ---------------------------------------------------------------


def capture_expected() -> None:
    """Record stdout and exit status of every CLI job, as this code prints them."""
    ns = import_program()
    home = os.getcwd()
    for name in ("corpus", "ladder"):
        workload = prepare(name, 0)
        workload.materialize()
        os.chdir(workload.cwd)
        answers, raised = {}, []
        try:
            for job in workload.jobs:
                if job.argv is None:
                    continue
                outcome = run_job(job, ns.cli.main)
                if outcome.error is not None:
                    raised.append(job.key)
                else:
                    answers[job.key] = {"status": outcome.status, "stdout": outcome.stdout}
        finally:
            os.chdir(home)
        path = EXPECTED / f"{name}.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        old.update({"answers": answers, "raised_at_capture": raised})
        path.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(answers)} answers, {len(raised)} raised")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="directory of expected answers (the self-check corrupts a copy)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--capture-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.capture_expected:
        capture_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        print(reference_seconds())
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
