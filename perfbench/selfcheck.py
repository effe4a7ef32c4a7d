"""Sensitivity self-check: a deliberate slowdown must show where predicted.

For one public function per layer, run the benchmark with a fixed delay
injected around it (``run.py --inject``) and compare with an un-slowed
run of the same seed:

- on the workload that exercises the layer, the layer's per-layer
  metric must grow by at least half again, and the predicted end-to-end
  metric must get worse by more than its bound from ``BENCHMARK.json``;
- on a workload that bypasses the layer, the serving metrics' medians
  over a few slowed runs, alternated with plain ones, must stay within
  their bounds of the plain runs' medians.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selfcheck.py

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Length and seed of every run, and plain/slowed pairs per bypass check.
SECONDS = 4
SEED = 11
REPEATS = 3

#: (injection, layer metric, workload that uses it, e2e metric predicted
#:  to worsen there, workload that bypasses it, e2e metrics to hold there)
CASES = [
    ("stable_top_k=0.5", "engine.select_ms", "serve_unique",
     "capacity_qps", "serve_hot", ("query_p50_ms", "capacity_qps")),
    ("from_block=1000", "incremental.from_block_ms", "ingest_publish",
     "build_s", "serve_hot", ("query_p50_ms", "capacity_qps")),
    ("write_bundle=200", "bundle.write_ms", "ingest_publish",
     "publish_s", "serve_hot", ("query_p50_ms", "capacity_qps")),
]


def _run(workload, seed, seconds, inject=None, trace=1):
    """``(e2e, layer)`` metric dicts of one run (layer empty untraced)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.strip().splitlines()
    metrics = {name: entry["value"]
               for name, entry in json.loads(lines[-1])["metrics"].items()}
    if not trace:
        return metrics, {}
    e2e = {}
    for line in lines:
        if line.startswith("untraced "):
            name, _, rest = line[len("untraced "):].partition(" = ")
            e2e[name] = float(rest.split()[0])
    return e2e, metrics


def _worse(metric, base, slowed, bounds) -> float:
    """Relative worsening of ``metric`` (positive = worse)."""
    better, _ = bounds[metric]
    if better == "lower":
        return slowed / base - 1
    return base / slowed - 1


def _paired_medians(workload, seed, seconds, repeats, inject):
    """Per-metric medians of alternating plain and slowed untraced runs.

    Alternating the two sides keeps a drift in the host's speed from
    reading as an effect of the injected delay.
    """
    sides = ([], [])
    for _ in range(repeats):
        sides[0].append(_run(workload, seed, seconds, trace=0)[0])
        sides[1].append(_run(workload, seed, seconds, inject, trace=0)[0])
    return [{name: statistics.median(run[name] for run in runs)
             for name in runs[0]} for runs in sides]


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in benchmark["end_to_end"]}
    traced = {}
    failures = 0

    def report(ok, text):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)

    for inject, layer_metric, target, e2e_metric, bypass, held in CASES:
        if target not in traced:
            traced[target] = _run(target, SEED, SECONDS)
        base_e2e, base_layer = traced[target]
        e2e, layer = _run(target, SEED, SECONDS, inject)
        grew = layer[layer_metric] / max(base_layer[layer_metric], 1e-9)
        worse = _worse(e2e_metric, base_e2e[e2e_metric], e2e[e2e_metric],
                       bounds)
        report(grew >= 1.5 and worse > bounds[e2e_metric][1],
               f"{inject} on {target}: {layer_metric} x{grew:.2f}, "
               f"{e2e_metric} worse by {worse:+.1%} "
               f"(bound {bounds[e2e_metric][1]:.0%})")

        plain, slowed = _paired_medians(bypass, SEED, SECONDS, REPEATS,
                                        inject)
        for metric in held:
            worse = _worse(metric, plain[metric], slowed[metric], bounds)
            report(worse <= bounds[metric][1],
                   f"{inject} on {bypass}: {metric} worse by "
                   f"{worse:+.1%} (bound {bounds[metric][1]:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
