"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [--workload W ...]

Runs each workload at minimal length, untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed with its unit and that the
outputs check. Then it corrupts a copy of the expected answers and asserts
that the corruption is caught (failed_frac above 0), that a job over its
time limit is stopped and fails, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and perfbench/. Exits 0 when every
assertion holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        raise SystemExit(1)


def check_metrics(workload: str, trace: int, spec: list[dict]) -> None:
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                        "--trace", str(trace))
    expect(code == 0, f"{workload} trace={trace}: exit status 0")
    result = result_of(lines)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: all {result['attempted']} jobs correct")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in spec},
           f"{workload} trace={trace}: exactly the {len(spec)} metrics of BENCHMARK.json")
    for m in spec:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{workload} trace={trace}: {m['name']} = {got['value']} {got['unit']}")
    if trace == 0:
        expect(any(line.startswith("failed_frac 0") for line in lines),
               f"{workload}: failed_frac printed and 0")
        expect(any(line.startswith("job_p90_ms") for line in lines),
               f"{workload}: job_p90_ms printed (or its omission explained)")


def check_corruption(workload: str) -> None:
    """A wrong expected answer must fail its job."""
    corrupt = WORK / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "expected", corrupt)
    path = corrupt / f"{workload}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if workload == "enumerate":
        data["counts"]["5,inrs"]["count"] += 1
    else:
        key = sorted(data["answers"])[0]
        data["answers"][key]["stdout"] += "corrupted\n"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                        "--expected", str(corrupt))
    result = result_of(lines)
    expect(code == 0 and result["failed"] > 0 and not result["correct"],
           f"{workload}: a corrupted expected answer gives failed_frac "
           f"{result['failed']}/{result['attempted']} > 0")
    shutil.rmtree(corrupt)


def check_limit() -> None:
    """A job that runs past its limit is stopped there and fails."""
    def spin():
        start = time.perf_counter()
        while time.perf_counter() - start < 5:
            pass
    outcome = run.run_job(run.Job("spin", call=spin), None, limit=0.2)
    expect(outcome.error is not None and outcome.error.startswith("OverLimit")
           and outcome.seconds < 1,
           f"a job over its 0.2 s limit is stopped after {outcome.seconds:.2f} s: "
           f"{outcome.error}")


def check_refuses_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                        cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"without src/ the benchmark exits {code} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="limit the metric checks to these workloads")
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in args.workload or WORKLOADS:
        check_metrics(workload, 0, manifest["end_to_end"])
        check_metrics(workload, 1, manifest["per_layer"])
    check_limit()
    check_corruption("corpus")
    check_corruption("enumerate")
    check_refuses_without_program()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
