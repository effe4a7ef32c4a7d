"""Inputs, counters and statistics shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

_PERF = time.perf_counter


class Outcome:
    """What a workload run hands back to the runner."""

    def __init__(self):
        self.metrics: "dict[str, tuple[float, str]]" = {}
        self.lines: "list[str]" = []
        self.invalid: "str | None" = None
        self.layer: dict = {}
        self.probe = HostProbe()
        self.measured: "dict[str, float]" = {}

    def put(self, name: str, value: float, unit: str,
            measured: "float | None" = None) -> None:
        """Record a metric; ``measured`` is its value before scaling to
        the reference host speed, for times and rates."""
        self.metrics[name] = (float(value), unit)
        if measured is not None:
            self.measured[name] = float(measured)


class Tally:
    """Attempted / succeeded / failed operations, per phase."""

    def __init__(self):
        self.phases: "dict[str, list[int]]" = {}
        self.reasons: "dict[str, int]" = {}

    def add(self, phase: str, attempted: int, failed: int = 0,
            reason: "str | None" = None) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += attempted
        counts[1] += failed
        if failed and reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + failed

    def guarded(self, phase: str, fn, *args, **kwargs):
        """Run one write-path operation; an exception is a failure."""
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # counted, reported, never hidden
            self.add(phase, 1, 1, f"{phase}: {error!r}")
            return None
        self.add(phase, 1)
        return result

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())

    def lines(self) -> "list[str]":
        out = [f"phase {name}: attempted {a} succeeded {a - f} failed {f}"
               for name, (a, f) in self.phases.items()]
        out += [f"failure {count}x {reason}"
                for reason, count in self.reasons.items()]
        return out


def stream(seed: int, purpose: int):
    """The random stream for one kind of input of one seed."""
    return np.random.default_rng([seed, purpose])


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of finite values."""
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, q)) if values.size else float("nan")


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = _PERF()
    result = fn(*args, **kwargs)
    return result, _PERF() - start


def synthetic_factors(rng, n_terms: int, rank: int, n_docs: int):
    """An ``SVDResult`` of a synthetic rank-``rank`` corpus.

    ``U`` is a random orthonormal basis, the spectrum decays like
    ``1/sqrt(i)``, and the right factor has unit-scale rows, so that
    document cosines spread over ``[-1, 1]`` with no planted ties.  A
    quarter of the corpus energy is left outside the basis, as a
    truncated SVD would leave it.
    """
    from repro.linalg.svd import SVDResult

    u, _ = np.linalg.qr(rng.standard_normal((n_terms, rank)))
    s = 400.0 / np.sqrt(np.arange(1, rank + 1))
    vt = rng.standard_normal((rank, n_docs)) / np.sqrt(n_docs)
    captured = float(np.sum(s * s))
    return SVDResult(u, s, vt, captured / 0.75)


def sparse_columns(rng, n_terms: int, n_cols: int, nnz: int):
    """``(indices, values)`` of ``n_cols`` sparse term vectors."""
    indices = np.stack([rng.choice(n_terms, nnz, replace=False)
                        for _ in range(n_cols)])
    values = rng.integers(1, 4, size=(n_cols, nnz)).astype(np.float64)
    return indices, values


def dense_column(n_terms: int, indices, values) -> np.ndarray:
    vector = np.zeros(n_terms)
    vector[indices] = values
    return vector


def dense_block(n_terms: int, indices, values) -> np.ndarray:
    block = np.zeros((n_terms, indices.shape[0]))
    for j in range(indices.shape[0]):
        block[indices[j], j] = values[j]
    return block


class HostProbe:
    """A fixed piece of work, timed between the measured steps of a run.

    Each reading stands for the host's speed at that moment: a GEMM over
    a matrix larger than the cache with a partial sort (the shape of the
    serving kernel) and a stretch of interpreted code with dict and list
    work (the shape of the plumbing around it).  It calls nothing of the
    program, so a change to the program cannot move it.  A step's time
    is reported at the reference speed: multiplied by :meth:`factor` of
    the readings taken around it (a rate is divided by it).
    """

    #: Timed repeats per reading.
    REPEATS = 5
    #: Probe time, in ms, of the reference host speed (set by run.py
    #: from design.json).
    REFERENCE_MS = 1.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 32768))
        self._queries = rng.standard_normal((64, 8))
        self.readings_ms: "list[float]" = []
        for _ in range(self.REPEATS):  # warm-up, not a reading
            self._once()

    def _once(self) -> float:
        start = _PERF()
        scores = self._queries.T @ self._matrix
        np.argpartition(-scores, 10, axis=1)
        table: "dict[int, list[int]]" = {}
        for i in range(12000):
            table.setdefault(i & 255, []).append(i * i)
        return (_PERF() - start) * 1e3

    def sample(self) -> float:
        """One reading: the median of ``REPEATS`` probe times, in ms."""
        reading = median([self._once() for _ in range(self.REPEATS)])
        self.readings_ms.append(reading)
        return reading

    def factor(self, *readings: float) -> float:
        """Reference speed over the host's speed in ``readings``."""
        return self.REFERENCE_MS / float(np.mean(readings))


class ProbedClock:
    """Times groups of steps, with a probe reading after each group.

    A step's time is scaled by :meth:`HostProbe.factor` of the readings
    before and after its group; ``samples`` maps each name to its
    (scaled, measured) times and ``probe_s`` is the time the readings
    took, for the caller to leave out of its own wall time.
    """

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.readings = [probe.sample()]
        self.probe_s = 0.0
        self.samples: "dict[str, tuple[list[float], list[float]]]" = {}

    def time(self, name: str, calls):
        """Run and time each zero-argument callable of ``calls``, then
        take one reading; returns the last call's result."""
        times, result = [], None
        for call in calls:
            result = None
            start = _PERF()
            result = call()
            times.append(_PERF() - start)
        began = _PERF()
        self.readings.append(self.probe.sample())
        self.probe_s += _PERF() - began
        self.record(name, times, self.readings[-2:])
        return result

    def record(self, name: str, times, readings) -> None:
        factor = self.probe.factor(*readings)
        scaled, measured = self.samples.setdefault(name, ([], []))
        scaled += [t * factor for t in times]
        measured += list(times)
