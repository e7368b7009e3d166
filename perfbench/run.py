"""qwcover benchmark: seeded CLI workloads, checked outputs, timed passes.

Usage, from the repository root::

    python3 perfbench/run.py --workload all-mid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Each workload is a fixed list of ``qwcover run ... --format json`` requests
built from ``--seed`` (see ``corpus.py``), sent one after another by one
client to ``qwcover.cli.main`` in a fresh worker process (``worker.py``).
Every report is checked from the Pauli words (``checks.py``), later passes
must reproduce the first pass byte for byte, and any failure makes the
command exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKSPACE = ROOT / ".perfbench"  # inputs, worker results and span files
SETUP_SAMPLES = 8  # fresh interpreters before the worker, and as many after it
WORKER_TIMEOUT_EXTRA_S = 120  # beyond --seconds: the reference pass and slack


def measure_setup(warm_up: bool) -> list[float]:
    """Seconds for each of ``SETUP_SAMPLES`` fresh interpreters to import
    ``qwcover.cli``; with ``warm_up``, one unmeasured import first writes
    the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import qwcover.cli"]
    samples = []
    for number in range(SETUP_SAMPLES + warm_up):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if number or not warm_up:
            samples.append(time.perf_counter() - start)
    return samples


def run_worker(workdir: Path, argvs: list[list[str]], seconds: int, trace: bool, trace_path: Path) -> dict:
    spec = {"requests": argvs, "seconds": seconds, "trace": trace, "trace_path": str(trace_path)}
    (workdir / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(workdir)],
        cwd=ROOT, check=True, timeout=seconds + WORKER_TIMEOUT_EXTRA_S,
    )
    return json.loads((workdir / "result.json").read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    requests = corpus.build(workload, seed)
    workdir = WORKSPACE / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = []
    for number, request in enumerate(requests):
        path = workdir / f"in-{number:03d}.ham"
        path.write_text(request.input.text)
        paths.append(path.relative_to(ROOT).as_posix())
    # Set-up samples on both sides of the worker follow the host's drift.
    setup_samples = [] if trace else measure_setup(warm_up=True)
    trace_path = WORKSPACE / f"spans-{workload}-seed{seed}.jsonl.gz"
    result = run_worker(workdir, [r.argv(p) for r, p in zip(requests, paths)], seconds, trace, trace_path)
    if not trace:
        setup_samples += measure_setup(warm_up=False)
    reports = [(workdir / f"out-{number:03d}.json").read_text() for number in range(len(requests))]
    shutil.rmtree(workdir)

    passes = 1 + len(result["request_seconds"]) + len(result["traced_request_seconds"])
    attempted = failed = 0
    problems = []
    by_heuristic: dict[str, int] = {}
    by_input: dict[str, list[int]] = {}
    for request, path, text, code, mismatched in zip(
        requests, paths, reports, result["codes"], result["mismatches"]
    ):
        solves = len(request.heuristics)
        attempted += passes * solves
        checked = checks.check_report(text, request, path) if code == 0 else [
            (h, f"exit code {code}", 0) for h in request.heuristics]
        bad = [(h, problem) for h, problem, _ in checked if problem is not None]
        failed += len(bad) + mismatched * (solves - len(bad))
        problems.extend(f"{path} {h}: {problem}" for h, problem in bad)
        if mismatched:
            problems.append(f"{path}: {mismatched} later passes changed the report bytes or exit code")
        for h, problem, n_groups in checked:
            if problem is None:
                by_heuristic[h] = by_heuristic.get(h, 0) + n_groups
                by_input.setdefault(request.input.name, []).append(n_groups)

    digest = hashlib.sha256("".join(reports).encode()).hexdigest()
    # One pass's time is the sum over requests of each request's median
    # over the timed passes, each time scaled by its local probe speed.
    wall_raw_s = sum(statistics.median(column) for column in zip(*result["request_seconds"]))
    wall_s = sum(
        statistics.median(t * s for t, s in zip(times, scales))
        for times, scales in zip(zip(*result["request_seconds"]), zip(*result["request_scales"]))
    )
    scale = result["speed_scale"]
    raw = {"speed scale (worker)": scale}
    if trace:
        metrics = {
            name: (result["layers"][name] * (scale if unit == "s" else 1), unit)
            for name, unit in spans.LAYER_METRICS
        }
    else:
        raw["wall_s unscaled"] = wall_raw_s
        metrics = {
            "wall_s": (wall_s, "s"),
            "groups": (sum(by_heuristic.values()), "count"),
            "best_groups": (sum(min(counts) for counts in by_input.values()), "count"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "report_sha256": digest,
        "groups_by_heuristic": by_heuristic,
        "timed_passes": len(result["request_seconds"]),
        "traced_passes": len(result["traced_request_seconds"]),
        "trace_path": str(trace_path.relative_to(ROOT)) if trace else None,
        "raw": raw,
        "metrics": metrics,
    }


def describe(outcome: dict) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    print(f"workload {outcome['workload']}: report sha256 {outcome['report_sha256']}")
    print(f"  timed passes {outcome['timed_passes']}, traced passes {outcome['traced_passes']}, "
          f"solves attempted {outcome['attempted']}, failed {outcome['failed']}")
    print("  groups by heuristic: " + " ".join(f"{h}={n}" for h, n in outcome["groups_by_heuristic"].items()))
    for problem in outcome["problems"][:20]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  " + ", ".join(f"{name} {value:.6g}" for name, value in outcome["raw"].items()))
    if outcome["trace_path"]:
        print(f"  spans written to {outcome['trace_path']}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qwcover" / "cli.py").is_file():
        print(f"perfbench: no qwcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        describe(outcome)
        outcomes.append(outcome)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{name}": value for o in outcomes for name, value in o["metrics"].items()}
    correct = all(o["correct"] for o in outcomes)
    print(result_line(correct, sum(o["attempted"] for o in outcomes),
                      sum(o["failed"] for o in outcomes), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
