"""The ``ingest_publish`` workload: writes beside reads, then publish.

Set-up only generates inputs: a separable corpus, the documents each
round adds, the ids each round removes and the queries each round
reads.  The measured phase then

1. builds the index with ``ServedIndex.fit_streamed`` over 256-column
   corpus blocks (``build_s``);
2. runs rounds on a fixed schedule, all from this thread: add 64
   documents, remove 8 live ids, then rank 16 fresh queries with
   ``rank_batch``; after every ``rounds_per_refit`` rounds, an
   incremental ``refit()`` runs in a slot of its own.  A read's latency
   runs from its round's due time, so it carries the write before it and
   any lateness, such as a refit that overran its slot;
3. publishes in the same slot, after each refit: ``save``, ``load``
   with ``mmap=True`` and one first query, a few times (``publish_s``,
   ``cold_start_ms``), so that these samples spread over the run.

Answers are checked after the clock stops: every read for tombstoned
or out-of-range ids, a seeded sample of rounds against the brute-force
oracle at the state of that round, and the final rankings against an
exact rank-k SVD of the live matrix (``top10_agreement``).
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse

import common
import loadgen
import oracle
import tracing

_PERF = time.perf_counter


def _to_scipy(block):
    """A program ``CSRMatrix`` (terms × docs) as a scipy CSR matrix."""
    return scipy.sparse.csr_matrix(
        (block.data, block.indices, block.indptr), shape=block.shape)


def _blended_counts(rng, table, n_docs: int, blend: int, low: int,
                    high: int) -> np.ndarray:
    """Term counts (terms × ``n_docs``) drawn as ``MixtureTopicFactors``
    draws them: ``blend`` distinct topics uniformly, symmetric
    Dirichlet(1) weights, a length uniform in ``[low, high]``, then one
    multinomial over the weighted mix of the topics' rows of ``table``.
    """
    n_topics = table.shape[0]
    chosen = np.argsort(rng.random((n_docs, n_topics)), axis=1)[:, :blend]
    weights = np.zeros((n_docs, n_topics))
    np.put_along_axis(weights, chosen,
                      rng.dirichlet(np.ones(blend), size=n_docs), axis=1)
    mix = weights @ table
    mix /= mix.sum(axis=1, keepdims=True)
    lengths = rng.integers(low, high + 1, size=n_docs)
    return rng.multinomial(lengths, mix).T.astype(np.float64)


class IngestInputs:
    """The generated corpus, round schedule and queries."""

    def __init__(self, spec: dict, seed: int, n_rounds: int):
        from repro.corpus.model import CorpusModel, MixtureTopicFactors
        from repro.corpus.sampler import generate_corpus
        from repro.corpus.separable import build_separable_model
        from repro.linalg.sparse import CSRMatrix

        start = _PERF()
        sizes = spec["sizes"]
        n_terms = sizes["n_terms"]
        # Separable topics, but each document blends two of them, so
        # documents spread inside the topic space instead of collapsing
        # onto 16 points where top-10 order would be a coin toss.
        topics = build_separable_model(n_terms, sizes["n_topics"]).topics
        model = CorpusModel(n_terms, topics, MixtureTopicFactors(
            topics_per_document=sizes["topics_per_document"]))
        self.corpus = generate_corpus(model, sizes["n_documents"],
                                      seed=common.stream(seed, 0))
        # Round documents and queries come from the same topic model,
        # drawn by the vectorised sampler below: the program's sampler
        # builds Python objects per document, and a run adds thousands.
        table = np.stack([topic.probabilities for topic in topics])
        blend = sizes["topics_per_document"]
        per_round = sizes["round_documents"]
        doc_rng = common.stream(seed, 1)
        self.blocks = [CSRMatrix.from_dense(_blended_counts(
            doc_rng, table, per_round, blend, 50, 100))
            for _ in range(n_rounds)]
        query_rng = common.stream(seed, 2)
        low = sizes["query_nnz"]
        self.reads = [_blended_counts(query_rng, table,
                                      sizes["round_queries"], blend,
                                      low, low + 10)
                      for _ in range(n_rounds)]
        self.probes = _blended_counts(query_rng, table, sizes["probes"],
                                      blend, low, low + 10)
        rng = common.stream(seed, 3)
        live = list(range(sizes["n_documents"]))
        self.removals = []
        for r in range(n_rounds):
            first = sizes["n_documents"] + r * per_round
            live.extend(range(first, first + per_round))
            picks = sorted(rng.choice(len(live), sizes["round_removals"],
                                      replace=False), reverse=True)
            self.removals.append(np.array([live.pop(p) for p in picks]))
        self.setup_s = _PERF() - start


def _round_state(inputs, n_docs0, r, removed_round):
    """Document count and tombstone mask right after round ``r``."""
    n_docs = n_docs0 + (r + 1) * inputs.blocks[0].shape[1]
    dead = np.zeros(n_docs, dtype=bool)
    ids = np.flatnonzero(removed_round <= r)
    dead[ids[ids < n_docs]] = True
    return n_docs, dead


def _oracle_docs(snapshot, inputs, r):
    """LSI document vectors the program should serve after round r.

    Documents the last refit absorbed come from its model; documents
    folded in since are projected onto that model's basis, which is
    what fold-in is defined to do.
    """
    model, first_fold_round = snapshot
    basis = model.term_basis
    parts = [model.document_vectors()]
    for q in range(first_fold_round, r + 1):
        parts.append(basis.T @ _to_scipy(inputs.blocks[q]).toarray())
    return basis, np.hstack(parts)


def _exact_reference(inputs, dead, rank):
    """Rank-k basis and document vectors from an exact live-matrix SVD."""
    corpus = _to_scipy(inputs.corpus.term_document_matrix())
    full = scipy.sparse.hstack(
        [corpus] + [_to_scipy(b) for b in inputs.blocks]).tocsc()
    live = full[:, np.flatnonzero(~dead)]
    gram = (live @ live.T).toarray()
    values, vectors = np.linalg.eigh(gram)
    basis = vectors[:, np.argsort(values)[::-1][:rank]]
    return basis, np.asarray((full.T @ basis).T)


def run(spec: dict, seed: int, seconds: float, *, workdir, setup_reps,
        tally) -> common.Outcome:
    """One run of ``ingest_publish`` (see the module docstring)."""
    from repro.corpus import io as corpus_io
    from repro.serving import ServedIndex, ServingConfig

    out = common.Outcome()
    sizes = spec["sizes"]
    per_refit = spec["rounds_per_refit"]
    interval = spec["round_interval_s"]
    cycle = per_refit * interval + spec["refit_slot_s"]
    n_rounds = per_refit * max(1, int(round(seconds / cycle)))
    probe = out.probe
    # Each step is scaled to the reference host speed by the probe
    # readings taken on either side of it (see common.HostProbe).
    setups, setup_factor = [], []
    reading = probe.sample()
    for _ in range(setup_reps):
        inputs = None
        gc.collect()
        inputs = IngestInputs(spec, seed, n_rounds)
        setups.append(inputs.setup_s)
        after = probe.sample()
        setup_factor.append(probe.factor(reading, after))
        reading = after

    # Set-up objects (the corpus is thousands of dicts) are moved out of
    # the collector's view, so that a collection in the measured phase
    # costs what the program allocates.
    gc.collect()
    gc.freeze()
    config = ServingConfig(stream_block_size=sizes["block_size"],
                           mmap=True)
    top_k = spec["top_k"]
    build_readings, probe_s = [], []

    def probed(blocks):
        """The corpus blocks, with a probe reading before each one; the
        readings' time is taken out of ``build_s``."""
        for block in blocks:
            began = _PERF()
            build_readings.append(probe.sample())
            probe_s.append(_PERF() - began)
            yield block

    index, build_s = common.timed(
        ServedIndex.fit_streamed,
        probed(corpus_io.corpus_column_blocks(inputs.corpus,
                                              sizes["block_size"])),
        sizes["rank"], seed=seed, config=config)
    build_s -= sum(probe_s)
    reading = probe.sample()
    build_factor = probe.factor(*build_readings, reading)
    n_docs0 = sizes["n_documents"]

    log = loadgen.PhaseLog(n_rounds, "rounds")
    add_s, read_s, refits = [], [], []
    publish_s, cold_ms = [], []
    checks = inputs.probes[:, :sizes["publish_check_queries"]]

    def publish(cycle_no):
        """Save, load (mmap) and query the index, a few times."""
        before = index.rank_batch(checks, top_k=top_k)
        for rep in range(sizes["publish_reps"]):
            bundle = workdir / f"bundle-{cycle_no}-{rep}"
            _, took = common.timed(tally.guarded, "publish", index.save,
                                   bundle)
            publish_s.append(took)
            cold = _PERF()
            loaded = ServedIndex.load(bundle, config=config)
            loaded.rank_batch(checks[:, :1], top_k=top_k)
            cold_ms.append((_PERF() - cold) * 1e3)
            after = loaded.rank_batch(checks, top_k=top_k)
            tally.add("publish", 1, int(not np.array_equal(before, after)),
                      "post-load ranking differs from the pre-save one")
            del loaded

    round_factor, cycle_factor = [], []
    snapshots = {}
    current = (index.model, 0)
    answers = []
    stats = index.stats()
    start = _PERF() + 0.01

    def wait_until(due):
        pause = due - _PERF()
        if pause > 0:
            time.sleep(pause)

    for r in range(n_rounds):
        cycle_start = start + (r // per_refit) * cycle
        due = cycle_start + (r % per_refit) * interval
        wait_until(due)
        tracing.set_query(r)
        log.due[r] = due
        log.sent[r] = _PERF()
        _, took = common.timed(tally.guarded, "write",
                               index.add_documents, inputs.blocks[r])
        add_s.append(took)
        tally.guarded("write", index.remove_documents, inputs.removals[r])
        snapshots[r] = current
        read_start = _PERF()
        try:
            ranked = index.rank_batch(inputs.reads[r], top_k=top_k)
        except Exception as error:  # counted as a failed read
            ranked = None
            log.errors[r] = f"read raised {error!r}"
        log.done[r] = _PERF()
        read_s.append(log.done[r] - read_start)
        answers.append(ranked)
        tracing.set_query(None)
        if (r + 1) % per_refit == 0:
            after_rounds = probe.sample()
            round_factor.append(probe.factor(reading, after_rounds))
            reading = after_rounds
            # The refit has its own slot; one that overruns it makes the
            # next reads late, and their latency shows it.
            wait_until(cycle_start + per_refit * interval)
            _, took = common.timed(tally.guarded, "write", index.refit,
                                   seed=seed)
            refits.append(took)
            current = (index.model, r + 1)
            publish(r // per_refit)
            after = probe.sample()
            cycle_factor.append(probe.factor(reading, after))
            reading = after
    log.n = n_rounds
    final = index.stats()
    counters = {name: getattr(final, name) - getattr(stats, name)
                for name in ("cache_hits", "cache_misses",
                             "cache_evictions")}

    # Read before the checks, whose exact SVD would otherwise set it.
    peak_rss_mb = common.peak_rss_mb()
    before = index.rank_batch(inputs.probes, top_k=top_k)

    # -- checks, after the clock ------------------------------------
    total_docs = n_docs0 + n_rounds * sizes["round_documents"]
    removed_round = np.full(total_docs, n_rounds, dtype=np.int64)
    for r, ids in enumerate(inputs.removals):
        removed_round[ids] = r
    sample = set(int(r) for r in common.stream(seed, 4).choice(
        n_rounds, min(spec["oracle_rounds"], n_rounds), replace=False))
    ok = np.ones(n_rounds, dtype=bool)
    for r, ranked in enumerate(answers):
        n_docs, dead = _round_state(inputs, n_docs0, r, removed_round)
        error = log.errors.get(r)
        if error is None and r in sample:
            basis, docs = _oracle_docs(snapshots[r], inputs, r)
            scores = oracle.cosine_scores(basis, docs, inputs.reads[r],
                                          dead)
            for row in range(ranked.shape[0]):
                error = error or oracle.ranking_error(
                    ranked[row], scores[row], top_k, dead)
        elif error is None:
            for row in ranked:
                error = error or oracle.ranking_error(
                    row, np.zeros(n_docs), top_k, dead)
        if error is not None:
            ok[r] = False
            log.errors[r] = error
            tally.add("read", 0, 1, f"read: {error}")
    tally.add("read", n_rounds)

    _, dead = _round_state(inputs, n_docs0, n_rounds - 1, removed_round)
    basis, docs = _exact_reference(inputs, dead, sizes["rank"])
    exact = oracle.cosine_scores(basis, docs, inputs.probes, dead)
    overlaps = [oracle.top_k_overlap(
        before[row], np.argsort(-exact[row], kind="stable")[:top_k])
        for row in range(before.shape[0])]

    latency = log.latency_ms
    limit = spec["latency_limit_ms"]

    def put(name, unit, measured, factor, rate_of=None):
        """Median of the samples at the reference speed, and as
        measured; ``factor`` scales each sample."""
        measured = np.asarray(measured, dtype=np.float64)
        values = [common.median(measured * factor), common.median(measured)]
        if rate_of is not None:
            values = [rate_of / value for value in values]
        out.put(name, values[0], unit, values[1])

    # Round r belongs to refit cycle r // per_refit, and is scaled by
    # the readings around that cycle's rounds; refits and publishes by
    # those around the refit slot, publish_reps publishes per cycle.
    per_round = np.repeat(round_factor, per_refit)
    per_publish = np.repeat(cycle_factor, sizes["publish_reps"])
    put("setup_s", "s", setups, setup_factor)
    for q in (50, 90):
        scaled = latency * per_round
        out.put(f"query_p{q}_ms", common.percentile(scaled[ok], q), "ms",
                common.percentile(latency[ok], q))
    put("capacity_qps", "1/s", read_s, per_round,
        rate_of=sizes["round_queries"])
    out.put("slo_ok_ratio",
            float(np.sum(ok & (latency <= limit))) / n_rounds, "ratio")
    put("build_s", "s", [build_s], build_factor)
    put("refit_s", "s", refits, cycle_factor)
    put("ingest_docs_per_s", "1/s", add_s, per_round,
        rate_of=sizes["round_documents"])
    put("publish_s", "s", publish_s, per_publish)
    put("cold_start_ms", "ms", cold_ms, per_publish)
    out.put("top10_agreement", float(np.mean(overlaps)), "ratio")
    out.put("peak_rss_mb", peak_rss_mb, "MiB")
    out.lines.append("cold_start_ms per repeat: " + " ".join(
        f"{ms:.2f}" for ms in cold_ms))
    out.lines.append(
        f"rounds: {n_rounds}, {interval} s apart, {len(refits)} refits "
        f"in {spec['refit_slot_s']} s slots, each followed by "
        f"{sizes['publish_reps']} publishes, "
        f"{len(sample)} rounds oracle-checked, final documents "
        f"{total_docs} ({int(dead.sum())} removed)")
    out.invalid = loadgen.backlog_reason(log.trim(), limit)
    out.layer = {"generator_late_p99_ms":
                 common.percentile(log.late_ms, 99),
                 "rounds": log, "counters": counters}
    return out
