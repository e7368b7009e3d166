"""Run one workload's requests through ``qwcover.cli.main`` in-process.

Usage: ``python3 perfbench/worker.py WORKDIR`` from the repository root.
``WORKDIR/spec.json`` holds ``requests`` (argv lists), ``seconds``,
``trace`` and ``trace_path``.  One client sends the requests one after
another (a closed loop).  The first pass is untimed: it warms the process
up and its reports are the reference that later passes must reproduce byte
for byte.  Timed passes follow until ``seconds`` would be exceeded; with
``trace`` they alternate untraced and traced.  A speed probe runs between
requests (``speed.py``) and gives each timed request its local speed scale.
The reference reports go to
``WORKDIR/out-NNN.json`` and the result, including this process's peak
resident memory, to ``WORKDIR/result.json``.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qwcover.cli as cli  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

MIN_PASSES = 3  # timed passes (pairs when tracing), however long a pass takes


def run_pass(
    requests: list[list[str]],
    tracer: spans.Tracer | None = None,
    probe: speed.Probe | None = None,
    save_to: Path | None = None,
):
    """``(seconds per request, probe positions, report digests, exit codes)``.

    Only the ``main`` calls are timed.  Between them, reports are hashed
    (and written to ``save_to``), so the process holds one report at a
    time, and the speed probe runs.  An exception is exit code -1.
    """
    seconds, positions, digests, codes = [], [], [], []
    for number, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = number
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:  # a crashing request fails; the pass goes on
            code = -1
            buffer.write(traceback.format_exc())
        seconds.append(time.perf_counter() - start)
        if probe is not None:
            positions.append(probe.account(seconds[-1]))
        text = buffer.getvalue()
        digests.append(hashlib.sha256(text.encode()).digest())
        codes.append(code)
        if save_to is not None:
            (save_to / f"out-{number:03d}.json").write_text(text)
    return seconds, positions, digests, codes


def main(workdir: Path) -> None:
    spec = json.loads((workdir / "spec.json").read_text())
    requests, seconds, trace = spec["requests"], spec["seconds"], spec["trace"]
    _, _, reference, reference_codes = run_pass(requests, save_to=workdir)
    probe = speed.Probe()
    mismatches = [0] * len(requests)  # passes whose report or exit code differed
    untraced, untraced_positions, traced, layers, all_spans = [], [], [], [], []

    def timed_pass(tracer: spans.Tracer | None = None) -> tuple[list[float], list[int]]:
        request_seconds, positions, digests, codes = run_pass(requests, tracer, probe)
        for number, (digest, code) in enumerate(zip(digests, codes)):
            if digest != reference[number] or code != reference_codes[number]:
                mismatches[number] += 1
        return request_seconds, positions

    began = time.perf_counter()
    while len(untraced) < MIN_PASSES or (
        (time.perf_counter() - began) * (len(untraced) + 1) / len(untraced) <= seconds
    ):
        request_seconds, positions = timed_pass()
        untraced.append(request_seconds)
        untraced_positions.append(positions)
        if trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                traced.append(timed_pass(tracer)[0])
            finally:
                uninstall()
            layers.append(spans.layer_values(tracer))
            all_spans.append(tracer.spans)

    result = {
        "codes": reference_codes,
        "mismatches": mismatches,
        "request_seconds": untraced,
        "request_scales": [[probe.scale(p) for p in positions] for positions in untraced_positions],
        "traced_request_seconds": traced,
        "speed_scale": probe.scale(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        overhead = statistics.median(sum(t) - sum(u) for t, u in zip(traced, untraced))
        result["layers"] = spans.median_layers(layers, overhead)
        with gzip.open(spec["trace_path"], "wt", compresslevel=1) as out:
            for pass_number, pass_spans in enumerate(all_spans):
                for name, start, end, parent, request in pass_spans:
                    out.write(json.dumps({"pass": pass_number, "request": request, "name": name,
                                          "start": start, "end": end, "parent": parent}) + "\n")
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
