"""The serve workloads: ``serve_unique`` and ``serve_hot``.

Set-up builds the index from synthetic factors, then, a few times over,
folds in a batch of new documents, removes a few and refits
incrementally.  It then publishes a bundle and serves from the
memory-mapped load of that bundle, as a server that starts from a
published index would.  The measured phase then sends
single queries through ``MicroBatchDispatcher`` in alternating cycles
of an open loop at a fixed offered rate and a closed window that
measures capacity; after each cycle a second server starts cold from
the same bundle beside the one serving.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import common
import loadgen
import oracle

_PERF = time.perf_counter

#: Open-loop / closed-window cycles per run, and the open loop's share
#: of the measured time, per process (see ``processes`` in design.json).
#: Latency and capacity are medians over the cycles.
CYCLES = 4
OPEN_SHARE = 0.7

#: Timed builds per set-up, and cold starts after each cycle.
BUILD_REPS = 9
COLD_STARTS_PER_CYCLE = 2

#: Queries drawn for each closed window: this rate times the window's
#: length, far above the capacities measured (see design.json), so that
#: a window runs out of queries only if the program gets that fast.
CLOSED_CEILING_QPS = 100_000

#: Term shift between the variants of one base query (odd, so the
#: shifts of a power-of-two term space repeat only after all of it).
_SHIFT = 1031


def _zipf_picks(rng, pool: int, exponent: float, n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1) ** exponent
    order = rng.permutation(pool)
    return order[rng.choice(pool, size=n, p=weights / weights.sum())]


class ServeSetup:
    """Everything one set-up produces, plus its timings."""

    def __init__(self, spec: dict, seed: int, workdir, tally, probe):
        from repro.core.lsi import LSIModel
        from repro.serving import MicroBatchDispatcher, ServedIndex, \
            ServingConfig, ShardedIndex

        clock = common.ProbedClock(probe)
        start = _PERF()
        sizes = spec["sizes"]
        n_terms = sizes["n_terms"]
        self.n_terms = n_terms
        self.pool = sizes["query_pool"]
        self.top_k = spec["top_k"]
        factors = common.synthetic_factors(
            common.stream(seed, 0), n_terms, sizes["rank"],
            sizes["n_documents"])
        reps = spec["publish_reps"]
        fold_rng = common.stream(seed, 1)
        per_cycle = sizes["fold_documents"] // sizes["fold_batch"]
        folds = [common.dense_block(n_terms, *common.sparse_columns(
            fold_rng, n_terms, sizes["fold_batch"], sizes["doc_nnz"]))
            for _ in range(reps * per_cycle)]
        removed = fold_rng.choice(sizes["n_documents"],
                                  (reps, sizes["removed"]), replace=False)
        query_rng = common.stream(seed, 2)
        self.query_idx, self.query_val = common.sparse_columns(
            query_rng, n_terms, sizes["query_pool"], sizes["query_nnz"])
        warm_idx, warm_val = common.sparse_columns(
            common.stream(seed, 4), n_terms, sizes["probes"],
            sizes["query_nnz"])
        probes = np.stack([common.dense_column(n_terms, i, v)
                           for i, v in zip(warm_idx, warm_val)], axis=1)
        config = ServingConfig(**spec["serving"])

        # Each timed step that takes milliseconds is repeated, and the
        # run reports medians over all repeats of all set-ups.
        def build():
            index = ServedIndex(LSIModel(factors), config=config)
            if spec["shards"] > 1:
                ShardedIndex.shard(index, spec["shards"],
                                   config=config).close()
            return index

        index = clock.time("build_s", [build] * BUILD_REPS)
        del factors
        for cycle in range(reps):
            clock.time("add_s", [
                lambda block=block: tally.guarded(
                    "prepare", index.add_documents, block)
                for block in folds[cycle * per_cycle:(cycle + 1) * per_cycle]])
            tally.guarded("prepare", index.remove_documents,
                          removed[cycle])
            clock.time("refit_s", [
                lambda: tally.guarded("prepare", index.refit)])
        served = index
        if spec["shards"] > 1:
            served = ShardedIndex.shard(index, spec["shards"], config=config)
        before = served.rank_batch(probes, top_k=self.top_k)

        # The oracle keeps the factors it needs, not the index.
        self.term_basis = index.model.term_basis
        self.doc_vectors = index.model.document_vectors()
        self.dead = np.zeros(self.doc_vectors.shape[1], dtype=bool)
        self.dead[list(index.tombstones)] = True

        bundle = workdir / "bundle"
        clock.time("publish_s", [
            lambda: tally.guarded("publish", served.save, bundle)] * reps)
        self.loader, self.bundle, self.config = type(served), bundle, config
        self.probes, self.before = probes, before
        if served is not index:
            served.close()
        del index, served
        gc.collect()
        self.index, _ = self.cold_load(tally)
        self.dispatcher = MicroBatchDispatcher(self.index, config=config)
        clock.record("setup_s", [_PERF() - start - clock.probe_s],
                     clock.readings)
        #: name → (times at the reference speed, times as measured)
        self.times = clock.samples

    def cold_load(self, tally):
        """Load the published bundle (mmap) and answer a first query.

        Returns the loaded index and the milliseconds to its first
        answer; its answers to the probes must match the pre-save ones.
        """
        cold = _PERF()
        loaded = self.loader.load(self.bundle, config=self.config)
        loaded.rank_batch(self.probes[:, :1], top_k=self.top_k)
        took = (_PERF() - cold) * 1e3
        after = loaded.rank_batch(self.probes, top_k=self.top_k)
        tally.add("publish", 1, int(not np.array_equal(self.before, after)),
                  "post-load ranking differs from the pre-save one")
        return loaded, took

    def cold_start_ms(self, tally) -> float:
        """One cold start of a server beside the one serving."""
        loaded, took = self.cold_load(tally)
        if hasattr(loaded, "close"):
            loaded.close()
        return took

    def warm(self, spec: dict, seed: int) -> None:
        """Send warm-up traffic at the offered rate before measuring.

        It runs on a fixed schedule, so it is kept out of ``setup_s``:
        it would add a constant there, not work.
        """
        pool = spec["sizes"]["query_pool"]
        count = spec["sizes"]["warm_queries"]
        picks = _zipf_picks(common.stream(seed, 5), pool, spec["zipf"],
                            count) if spec["zipf"] else range(count)
        loadgen.open_loop(self.dispatcher, self.vector, picks,
                          rate=spec["offered_rate_qps"],
                          seconds=count / spec["offered_rate_qps"],
                          top_k=self.top_k, name="warm")

    def vector(self, q: int) -> np.ndarray:
        """Query ``q``: base query ``q % pool`` with its terms shifted
        by ``q // pool`` steps, so that any id past the pool is made on
        demand and every id names a distinct query."""
        base, turn = q % self.pool, q // self.pool
        indices = self.query_idx[base]
        if turn:
            indices = (indices + turn * _SHIFT) % self.n_terms
        return common.dense_column(self.n_terms, indices,
                                   self.query_val[base])

    def spill_oracle(self, workdir) -> None:
        """Keep the oracle's copy of the document vectors on disk, not
        in memory, until the answers are checked."""
        path = workdir / "oracle-docs.npy"
        np.save(path, self.doc_vectors)
        self.doc_vectors = np.load(path, mmap_mode="r")

    def close(self) -> None:
        self.dispatcher.close()
        if hasattr(self.index, "close"):
            self.index.close()


def _counters(setup) -> dict:
    stats = setup.index.stats()
    batching = setup.dispatcher.stats()
    return {"cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_evictions": stats.cache_evictions,
            "submitted": batching.submitted,
            "batches": batching.batches,
            "coalesced": batching.coalesced,
            "timeout_flushes": batching.timeout_flushes}


def _check_answers(setup, phases, sample, tally):
    """Oracle-check answers; returns per-log ok masks and overlaps.

    ``phases`` is a list of ``(phase name, log)``.  Every answer is
    checked for shape, range, duplicates and tombstones; answers to the
    queries in ``sample`` are also compared with the brute-force
    oracle's scores.
    """
    top_k = setup.top_k
    n_docs = setup.doc_vectors.shape[1]
    oks = []
    by_query: "dict[int, list[tuple[int, int]]]" = {}
    for which, (_, log) in enumerate(phases):
        ok = np.ones(log.n, dtype=bool)
        for i in log.errors:
            ok[i] = False
        for i, answer in enumerate(log.answers):
            if answer is None:
                ok[i] = False
                continue
            if answer.shape != (top_k,) or answer.min() < 0 \
                    or answer.max() >= n_docs \
                    or np.unique(answer).size != top_k \
                    or setup.dead[answer].any():
                ok[i] = False
                log.errors.setdefault(i, "malformed ranking")
            elif int(log.query[i]) in sample:
                by_query.setdefault(int(log.query[i]), []).append(
                    (which, i))
        oks.append(ok)
    overlaps = []
    queries = sorted(by_query)
    for start in range(0, len(queries), 64):
        chunk = queries[start:start + 64]
        block = np.stack([setup.vector(q) for q in chunk], axis=1)
        scores = oracle.cosine_scores(setup.term_basis, setup.doc_vectors,
                                      block, setup.dead)
        for row, q in enumerate(chunk):
            best = np.argsort(-scores[row], kind="stable")[:top_k]
            for which, i in by_query[q]:
                log = phases[which][1]
                error = oracle.ranking_error(log.answers[i], scores[row],
                                             top_k, setup.dead)
                if error is not None:
                    oks[which][i] = False
                    log.errors[i] = error
                overlaps.append(oracle.top_k_overlap(log.answers[i],
                                                     best))
    for (name, log), ok in zip(phases, oks):
        tally.add(name, log.n)
        for i in np.flatnonzero(~ok):
            tally.add(name, 0, 1,
                      f"{name}: {log.errors.get(int(i), 'unanswered')}")
    return oks, overlaps


def run(spec: dict, seed: int, seconds: float, *, workdir, setup_reps,
        tally) -> common.Outcome:
    """One run of a serve workload (see the module docstring)."""
    out = common.Outcome()
    probe = out.probe
    setups = []
    setup = None
    for _ in range(setup_reps):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        setup = ServeSetup(spec, seed, workdir, tally, probe)
        setups.append(setup.times)
    setup.spill_oracle(workdir)
    setup.warm(spec, seed)

    sizes = spec["sizes"]
    pool = sizes["query_pool"]
    open_s = seconds * OPEN_SHARE / CYCLES
    closed_s = seconds * (1 - OPEN_SHARE) / CYCLES
    n_open = int(round(spec["offered_rate_qps"] * open_s))
    n_closed = int(CLOSED_CEILING_QPS * closed_s)
    if spec["zipf"]:
        open_pick = _zipf_picks(common.stream(seed, 3), pool, spec["zipf"],
                                n_open * CYCLES)
        closed_pick = _zipf_picks(common.stream(seed, 6), pool, spec["zipf"],
                                  n_closed * CYCLES)
    else:
        # Distinct ids after the warm-up's, each query made on demand.
        first = sizes["warm_queries"]
        open_pick = range(first, first + n_open * CYCLES)
        first += n_open * CYCLES
        closed_pick = range(first, first + n_closed * CYCLES)

    before = _counters(setup)
    # Set-up objects are moved out of the collector's view, so that a
    # collection in the measured phase costs what serving allocates.
    gc.collect()
    gc.freeze()
    # Open-loop and closed-window phases alternate, so that both sample
    # the whole run: on a shared host a slow spell then moves one cycle,
    # and the tail and the capacity are medians over the cycles.
    # Each closed window and the cold starts after it are scaled to the
    # reference host speed by the probe readings on either side of them.
    open_logs, closed_logs, cold_ms = [], [], []
    closed_factor = []
    for c in range(CYCLES):
        open_logs.append(loadgen.open_loop(
            setup.dispatcher, setup.vector,
            open_pick[c * n_open:(c + 1) * n_open],
            rate=spec["offered_rate_qps"], seconds=open_s,
            top_k=setup.top_k, name=f"open{c}"))
        middle = probe.sample()
        closed_logs.append(loadgen.closed_window(
            setup.dispatcher, setup.vector,
            closed_pick[c * n_closed:(c + 1) * n_closed],
            depth=spec["closed_window_depth"], seconds=closed_s,
            top_k=setup.top_k, name=f"closed{c}"))
        # Cold starts run between the cycles, so that they too sample
        # the whole run.
        cold_ms += [setup.cold_start_ms(tally)
                    for _ in range(COLD_STARTS_PER_CYCLE)]
        reading = probe.sample()
        closed_factor.append(probe.factor(middle, reading))
    after = _counters(setup)
    # Read before the oracle runs, so that it reports the program.
    peak_rss_mb = common.peak_rss_mb()
    setup.close()

    answered = np.unique(np.concatenate(
        [log.query for log in open_logs + closed_logs]))
    if spec["oracle_sample"] and spec["oracle_sample"] < answered.size:
        sample = set(int(q) for q in common.stream(seed, 7).choice(
            answered, spec["oracle_sample"], replace=False))
    else:
        sample = set(int(q) for q in answered)
    oks, overlaps = _check_answers(
        setup, [("open", log) for log in open_logs]
        + [("closed", log) for log in closed_logs], sample, tally)

    limit = spec["latency_limit_ms"]
    latency = np.concatenate([log.latency_ms for log in open_logs])
    open_ok = np.concatenate(oks[:CYCLES])

    def put(name, unit, samples, rate_of=None):
        """The median of the scaled samples, and of the measured ones;
        ``samples`` is a list of (scaled, measured) arrays."""
        scaled, measured = (common.median(np.concatenate(part))
                            for part in zip(*samples))
        if rate_of is not None:
            scaled, measured = rate_of / scaled, rate_of / measured
        out.put(name, scaled, unit, measured)

    def set_up(name):
        return [setup_times[name] for setup_times in setups]

    put("setup_s", "s", set_up("setup_s"))
    # Open-loop latency is scaled by all of the run's readings, not by
    # the two around each open loop: part of it is the dispatcher's
    # max_wait_ms timer, and a factor that swings with every reading
    # moved the median more than the host did.
    run_factor = probe.factor(*probe.readings_ms)
    for q in (50, 90):
        tails = [common.percentile(log.latency_ms[ok], q)
                 for log, ok in zip(open_logs, oks)]
        put(f"query_p{q}_ms", "ms", [(np.multiply(tails, run_factor), tails)])
    capacity = [log.n / (np.nanmax(log.done) - log.sent[0])
                for log in closed_logs]
    put("capacity_qps", "1/s",
        [([c / f], [c]) for f, c in zip(closed_factor, capacity)])
    out.put("slo_ok_ratio",
            float(np.sum(open_ok & (latency <= limit))) / latency.size,
            "ratio")
    put("build_s", "s", set_up("build_s"))
    put("refit_s", "s", set_up("refit_s"))
    put("ingest_docs_per_s", "1/s", set_up("add_s"),
        rate_of=sizes["fold_batch"])
    put("publish_s", "s", set_up("publish_s"))
    per = COLD_STARTS_PER_CYCLE
    put("cold_start_ms", "ms",
        [(np.multiply(cold_ms[c * per:(c + 1) * per], f),
          cold_ms[c * per:(c + 1) * per])
         for c, f in enumerate(closed_factor)])
    out.put("top10_agreement", float(np.mean(overlaps)), "ratio")
    out.put("peak_rss_mb", peak_rss_mb, "MiB")
    late = np.concatenate([log.late_ms for log in open_logs])
    out.lines.append(
        f"{CYCLES} cycles of an open loop at {spec['offered_rate_qps']} "
        f"q/s ({latency.size} queries in all) and a closed window at "
        f"depth {spec['closed_window_depth']} "
        f"({sum(log.n for log in closed_logs)} queries in all); "
        f"oracle-checked {len(overlaps)} answers")
    out.lines.append("cold_start_ms per repeat: " + " ".join(
        f"{ms:.2f}" for ms in cold_ms))
    out.lines.append("build_s per repeat: " + " ".join(
        f"{x:.4f}" for s in setups for x in s["build_s"][1]))
    for q in (50, 90):
        out.lines.append(f"open-loop p{q} per cycle (ms): " + " ".join(
            f"{common.percentile(log.latency_ms[ok], q):.2f}"
            for log, ok in zip(open_logs, oks)))
    out.lines += [f"{log.name}: ran out of its {len(log.answers)} queries "
                  f"after {np.nanmax(log.done) - log.sent[0]:.3f} s "
                  f"(capacity above {CLOSED_CEILING_QPS} q/s)"
                  for log in closed_logs if log.exhausted]
    out.invalid = next(filter(None, (loadgen.backlog_reason(log, limit)
                                     for log in open_logs)), None)
    out.layer = {
        "generator_late_p99_ms": common.percentile(late, 99),
        "counters": {k: after[k] - before[k] for k in after},
        "open_logs": open_logs}
    return out
