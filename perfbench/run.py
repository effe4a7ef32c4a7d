"""LSI serving and ingest benchmark: one workload, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_unique --seed 1 \\
        --seconds 10 --trace 0

Human-readable lines (every metric by name and unit, and the
attempted/succeeded/failed counts of each phase) come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (a serve workload runs as three processes, one after
another, and reports each metric's median over them); ``--trace 1``
runs the workload untraced and then traced, in one process, and reports
the per-layer metrics from the spans, which are also written to
``.perfbench-out/``.  The workloads, sizes, rates, limits
and the layer-to-metric table are in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))

# BLAS reads its thread count once, when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = str(DESIGN["blas_threads"])

#: Functions the self-check may slow down: name -> (module, owner,
#: attribute, whether the delay is per 100k scores rather than per call).
#: ``stable_top_k`` is slowed in proportion to its input, as a slower
#: kernel would be, so a workload that ranks few documents stays fast.
#: The delay spins rather than sleeps: a sleep costs about 0.06 ms more
#: than asked, which would slow small inputs out of proportion.
INJECTABLE = {
    "stable_top_k": ("repro.serving.engine", None, "stable_top_k", True),
    "from_block": ("repro.linalg.incremental", "PartialSVD",
                   "from_block", False),
    "write_bundle": ("repro.serving.bundle", None, "write_bundle",
                     False),
}


#: Set-ups per untraced run of a workload measured in one process;
#: set-up figures are medians over them.
SETUP_REPS = 3

#: The benchmark re-executes itself with these set.  glibc's malloc
#: otherwise moves its mmap threshold as large arrays are freed, so the
#: same allocation was a fresh mapping (page faults) in one process and
#: reused heap in the next: a 20 ms index build took 15 or 30 ms by that
#: alone.  Fixed thresholds keep arrays up to 32 MiB on the heap and the
#: heap untrimmed, as in a long-running server that has warmed up.  (A
#: fixed 128 KiB threshold, which maps every large array afresh, made
#: stable_top_k three times slower, all of it page faults.)
BENCH_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
             "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

#: Longest a run measured in several processes may take, all together;
#: a process still running then is killed and the run fails.
PARTS_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DESIGN["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        help="NAME=MS: spin MS milliseconds in every call "
                             f"of one of {sorted(INJECTABLE)} (per 100k "
                             "scores for stable_top_k); for the "
                             "sensitivity self-check only")
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Put this checkout's ``src`` first on the path, or fail."""
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/repro under the current "
                         "directory; run from the repository root\n")
        raise SystemExit(2)
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro"
                                                 ).resolve():
        sys.stderr.write(f"perfbench: imported {repro.__file__}, not "
                         f"the checkout's src/repro\n")
        raise SystemExit(2)


def _inject(spec: str):
    """Install a fixed delay around one public function."""
    import importlib

    import tracing

    name, _, ms = spec.partition("=")
    module, owner, attribute, per_scores = INJECTABLE[name]
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    delay = float(ms) / 1000.0

    def make(fn):
        def slowed(*args, **kwargs):
            scale = len(args[0]) / 1e5 if per_scores else 1.0
            end = time.perf_counter() + delay * scale
            while time.perf_counter() < end:
                pass
            return fn(*args, **kwargs)
        return slowed

    patcher = tracing.Patcher()
    patcher.replace(target, attribute, make)
    return patcher


def _run_workload(name, seed, seconds, workdir, setup_reps):
    import common
    import ingest
    import serve

    spec = DESIGN["workloads"][name]
    tally = common.Tally()
    module = ingest if name == "ingest_publish" else serve
    outcome = module.run(spec, seed, seconds, workdir=workdir,
                         setup_reps=setup_reps, tally=tally)
    return outcome, tally


def _run_parts(args, parts: int) -> int:
    """Run an untraced workload as ``parts`` processes, one after another.

    Each process sets up once and measures an equal share of
    ``--seconds``.  Every metric is the median over the processes, so
    that neither one slow process nor a slow spell of the host during
    one of them sets it; operation counts are summed.
    """
    values: "dict[str, list[float]]" = {}
    units: "dict[str, str]" = {}
    lines: "list[str]" = []
    attempted = failed = 0
    correct = True
    deadline = time.monotonic() + PARTS_TIMEOUT_S
    for part in range(parts):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / parts), "--trace", "0",
                   "--part", str(part)]
        if args.inject:
            command += ["--inject", args.inject]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            sys.stderr.write(f"perfbench: part {part} exited with "
                             f"{done.returncode}\n")
            return done.returncode or 1
        result = json.loads(out[-1])
        lines += [f"part {part}: {line}" for line in out[:-1]
                  if not line.startswith("e2e ")]
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    metrics = {name: statistics.median(v) for name, v in values.items()}
    for name, value in metrics.items():
        print(f"e2e {name} = {value:.6g} {units[name]} (median of "
              + " ".join(f"{v:.6g}" for v in values[name]) + ")")
    print(f"e2e failed_ratio = {failed / max(1, attempted):.6g} ratio")
    for line in lines:
        print(line)
    print(f"all {parts} parts: attempted {attempted} "
          f"succeeded {attempted - failed} failed {failed}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if any(os.environ.get(k) != v for k, v in BENCH_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())] + argv,
                  dict(os.environ, **BENCH_ENV))
    _import_program()
    parts = DESIGN["workloads"][args.workload]["processes"]
    if parts > 1 and not args.trace and args.part is None:
        return _run_parts(args, parts)
    import common
    import layers

    common.HostProbe.REFERENCE_MS = DESIGN["host_reference_ms"]

    out_dir = Path.cwd() / ".perfbench-out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    patcher = _inject(args.inject) if args.inject else None
    try:
        if args.trace:
            plain, _ = _run_workload(args.workload, args.seed,
                                     args.seconds, workdir, 1)
            import tracing

            recorder = tracing.Recorder().install()
            try:
                outcome, tally = _run_workload(
                    args.workload, args.seed, args.seconds, workdir, 1)
            finally:
                recorder.uninstall()
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
            recorder.dump(trace_path)
            metrics = layers.derive(recorder, outcome, plain)
            units = layers.UNITS
        else:
            outcome, tally = _run_workload(
                args.workload, args.seed, args.seconds, workdir,
                SETUP_REPS if parts == 1 else 1)
            metrics = {name: value
                       for name, (value, _) in outcome.metrics.items()}
            units = {name: unit
                     for name, (_, unit) in outcome.metrics.items()}
    finally:
        if patcher is not None:
            patcher.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in outcome.metrics.items():
        print(f"e2e {name} = {value:.6g} {unit}")
    print(f"e2e failed_ratio = {tally.failed / max(1, tally.attempted):.6g}"
          " ratio")
    for name, value in outcome.measured.items():
        print(f"as measured {name} = {value:.6g} "
              f"{outcome.metrics[name][1]}")
    if args.trace:
        for name, (value, unit) in plain.metrics.items():
            print(f"untraced {name} = {value:.6g} {unit}")
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
    for line in outcome.lines + tally.lines():
        print(line)
    print("host probe readings (ms): " + " ".join(
        f"{ms:.3f}" for ms in outcome.probe.readings_ms))
    print(f"blas_threads = {DESIGN['blas_threads']}")
    if outcome.invalid:
        print(f"INVALID RUN: backlog at the offered rate: "
              f"{outcome.invalid}")
    result = {
        "correct": tally.failed == 0 and outcome.invalid is None,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
