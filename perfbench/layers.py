"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Times are totals over the whole traced
run (set-up and measured phase) unless the name says per query; the
cache and dispatcher counters cover the measured phase only.
"""

from __future__ import annotations

import numpy as np

import common

#: Every per-layer metric, with its unit, in report order.
METRICS = [
    ("engine.score_ms", "ms"), ("engine.select_ms", "ms"),
    ("engine.rank_batch_ms", "ms"), ("engine.ms_per_query", "ms"),
    ("engine.rows_ranked", "count"), ("engine.builds", "count"),
    ("engine.build_ms", "ms"),
    ("index.cache_hit_ratio", "ratio"), ("index.cache_evictions", "count"),
    ("index.self_ms", "ms"), ("index.rank_batch_calls", "count"),
    ("dispatch.batch_mean", "count"), ("dispatch.coalesced_ratio", "ratio"),
    ("dispatch.timeout_flush_ratio", "ratio"),
    ("dispatch.queue_wait_p50_ms", "ms"),
    ("dispatch.queue_wait_p99_ms", "ms"),
    ("sharded.fanout_ms", "ms"), ("sharded.self_ms", "ms"),
    ("sharded.shard_skew_ms", "ms"),
    ("writer.add_ms", "ms"), ("writer.remove_ms", "ms"),
    ("writer.drift_at_refit", "ratio"),
    ("incremental.from_block_calls", "count"),
    ("incremental.from_block_ms", "ms"),
    ("incremental.merge_calls", "count"), ("incremental.merge_ms", "ms"),
    ("incremental.exact_fallbacks", "count"),
    ("incremental.fallback_ratio", "ratio"),
    ("svd.truncated_svd_calls", "count"), ("svd.truncated_svd_ms", "ms"),
    ("svd.truncated_svd_calls.lanczos", "count"),
    ("svd.truncated_svd_ms.lanczos", "ms"),
    ("svd.truncated_svd_calls.exact", "count"),
    ("svd.truncated_svd_ms.exact", "ms"),
    ("bundle.write_ms", "ms"), ("bundle.read_ms", "ms"),
    ("bundle.bytes", "bytes"),
    ("corpus.block_ms", "ms"), ("corpus.blocks", "count"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.blocking_path_share", "ratio"),
]
UNITS = dict(METRICS)

#: End-to-end metrics compared traced against untraced, and whether
#: a larger value is worse.
_OVERHEAD = {"query_p50_ms": True, "query_p90_ms": True,
             "capacity_qps": False, "build_s": True, "refit_s": True,
             "publish_s": True, "cold_start_ms": True,
             "ingest_docs_per_s": False}


def _union(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class _Tree:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: "dict[int, list]" = {}
        self._critical: "dict[int, float]" = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def kids(self, span):
        return self.children.get(span.sid, [])

    def self_time(self, span) -> float:
        return span.dur - _union((max(c.start, span.start),
                                  min(c.end, span.end))
                                 for c in self.kids(span))

    def critical(self, span) -> float:
        """Self time plus the blocking children: all of a sequential
        set, the slowest of a set run on other threads."""
        known = self._critical.get(span.sid)
        if known is not None:
            return known
        kids = self.kids(span)
        value = span.dur
        if kids:
            crit = [self.critical(c) for c in kids]
            parallel = any(c.thread != span.thread for c in kids)
            value = self.self_time(span) + (max(crit) if parallel
                                            else sum(crit))
        self._critical[span.sid] = value
        return value


def _info(span, key, default=None):
    """A span's recorded detail (a call that raised recorded none)."""
    return (span.info or {}).get(key, default)


def _ms(spans) -> float:
    return 1e3 * sum(s.dur for s in spans)


def _serve_path(tree, answered, outcome, metrics) -> None:
    """Dispatcher queue wait and blocking-path share for served queries.

    Each answered query is matched to the dispatcher-thread index call
    that answered it, through the query ids noted on that call's span.
    """
    by_query = {qid: tree.by_id[sid]
                for sid, qids in answered.items() for qid in qids}
    waits, latency, accounted = [], [], []
    for log in outcome.layer["open_logs"]:
        for i in range(log.n):
            span = by_query.get(f"{log.name}:{i}")
            if log.answers[i] is None or span is None:
                continue
            total = (log.done[i] - log.due[i]) * 1e3
            wait = total - span.dur * 1e3
            waits.append(wait)
            latency.append(total)
            accounted.append(wait + tree.critical(span) * 1e3)
    metrics["dispatch.queue_wait_p50_ms"] = common.percentile(waits, 50)
    metrics["dispatch.queue_wait_p99_ms"] = common.percentile(waits, 99)
    metrics["bench.blocking_path_share"] = sum(accounted) / sum(latency)


def _ingest_path(tree, outcome, metrics) -> None:
    """Blocking-path share of each round: lateness plus the root spans
    tagged with the round's query id."""
    log = outcome.layer["rounds"]
    roots: "dict[int, list]" = {}
    for span in tree.spans:
        if span.parent is None and span.qid is not None:
            roots.setdefault(span.qid, []).append(span)
    latency = accounted = 0.0
    for r in range(log.n):
        latency += log.done[r] - log.due[r]
        accounted += (log.sent[r] - log.due[r]) + sum(
            tree.critical(s) for s in roots.get(r, []))
    metrics["bench.blocking_path_share"] = accounted / latency


def derive(recorder, outcome, plain) -> "dict[str, float]":
    """Every metric in :data:`METRICS` from one traced run.

    Args:
        recorder: the span recorder of the traced run.
        outcome: the traced run's outcome.
        plain: the untraced run's outcome, for the tracing overhead.
    """
    tree = _Tree(recorder.spans)
    m: "dict[str, float]" = {}

    engine_rank = tree.named("engine.rank_batch")
    rank_ids = {s.sid for s in engine_rank}
    select = [s for s in tree.named("engine.stable_top_k")
              if s.parent in rank_ids]
    rows = sum(_info(s, "rows", 0) for s in engine_rank)
    m["engine.rank_batch_ms"] = _ms(engine_rank)
    m["engine.select_ms"] = _ms(select)
    m["engine.score_ms"] = m["engine.rank_batch_ms"] - m["engine.select_ms"]
    m["engine.rows_ranked"] = rows
    m["engine.ms_per_query"] = m["engine.rank_batch_ms"] / max(rows, 1)
    builds = tree.named("engine.build")
    m["engine.builds"] = len(builds)
    m["engine.build_ms"] = _ms(builds)

    counters = outcome.layer["counters"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    m["index.cache_hit_ratio"] = counters["cache_hits"] / max(lookups, 1)
    m["index.cache_evictions"] = counters["cache_evictions"]
    index_rank = tree.named("index.rank_batch")
    m["index.self_ms"] = 1e3 * sum(tree.self_time(s) for s in index_rank)
    m["index.rank_batch_calls"] = len(index_rank)

    submitted = counters.get("submitted", 0)
    batches = counters.get("batches", 0)
    m["dispatch.batch_mean"] = submitted / max(batches, 1)
    m["dispatch.coalesced_ratio"] = \
        counters.get("coalesced", 0) / max(submitted, 1)
    m["dispatch.timeout_flush_ratio"] = \
        counters.get("timeout_flushes", 0) / max(batches, 1)

    fanned = [s for s in tree.named("sharded.rank_batch")
              if any(c.thread != s.thread for c in tree.kids(s))]
    outer = [s for s in tree.named("sharded.rank_batch")
             if s.parent not in tree.by_id
             or tree.by_id[s.parent].name != "sharded.rank_batch"]
    covered = [_union((c.start, c.end) for c in tree.kids(s))
               for s in fanned]
    m["sharded.fanout_ms"] = 1e3 * sum(covered)
    m["sharded.self_ms"] = 1e3 * (sum(s.dur for s in outer)
                                  - sum(covered))
    skews = [max(c.dur for c in tree.kids(s)) - min(c.dur
                                                    for c in tree.kids(s))
             for s in fanned]
    m["sharded.shard_skew_ms"] = 1e3 * float(np.mean(skews)) \
        if skews else 0.0

    m["writer.add_ms"] = _ms(tree.named("writer.add_documents"))
    m["writer.remove_ms"] = _ms(tree.named("writer.remove_documents"))
    drifts = [_info(s, "drift", 0.0) for s in tree.named("writer.refit")]
    m["writer.drift_at_refit"] = float(np.mean(drifts)) if drifts else 0.0

    blocks = tree.named("incremental.from_block")
    fallbacks = [s for s in blocks if _info(s, "engine") != "exact"
                 and any(c.name == "svd.truncated_svd"
                         and _info(c, "engine") == "exact"
                         for c in tree.kids(s))]
    m["incremental.from_block_calls"] = len(blocks)
    m["incremental.from_block_ms"] = _ms(blocks)
    merges = tree.named("incremental.merge")
    m["incremental.merge_calls"] = len(merges)
    m["incremental.merge_ms"] = _ms(merges)
    m["incremental.exact_fallbacks"] = len(fallbacks)
    m["incremental.fallback_ratio"] = len(fallbacks) / max(len(blocks), 1)

    svds = tree.named("svd.truncated_svd")
    m["svd.truncated_svd_calls"] = len(svds)
    m["svd.truncated_svd_ms"] = _ms(svds)
    for engine in ("lanczos", "exact"):
        chosen = [s for s in svds if _info(s, "engine") == engine]
        m[f"svd.truncated_svd_calls.{engine}"] = len(chosen)
        m[f"svd.truncated_svd_ms.{engine}"] = _ms(chosen)

    writes = tree.named("bundle.write_bundle")
    m["bundle.write_ms"] = _ms(writes)
    m["bundle.read_ms"] = _ms(tree.named("bundle.read_bundle"))
    m["bundle.bytes"] = sum(_info(s, "bytes", 0) for s in writes)
    corpus = tree.named("corpus.block")
    m["corpus.block_ms"] = _ms(corpus)
    m["corpus.blocks"] = len(corpus)

    m["bench.generator_late_p99_ms"] = \
        outcome.layer["generator_late_p99_ms"]
    changes = []
    for name, lower_better in _OVERHEAD.items():
        traced = outcome.metrics[name][0]
        base = plain.metrics[name][0]
        changes.append(traced / base - 1 if lower_better
                       else base / traced - 1)
    m["bench.tracing_overhead"] = float(np.median(changes))
    if "open_logs" in outcome.layer:
        _serve_path(tree, recorder.answered, outcome, m)
    else:
        m["dispatch.queue_wait_p50_ms"] = 0.0
        m["dispatch.queue_wait_p99_ms"] = 0.0
        _ingest_path(tree, outcome, m)
    return {name: float(m[name]) for name, _ in METRICS}
