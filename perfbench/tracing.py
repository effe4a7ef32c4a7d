"""Stdlib-only span recorder that wraps the program's public entry points.

Nothing in the program is edited: :meth:`Recorder.install` replaces each
traced function or method with a timing wrapper at run time and
:meth:`Recorder.uninstall` puts the originals back.  Module functions are
replaced in every ``repro`` module that bound them by name (``from x
import f``), so calls route through the wrapper whichever module makes
them.

A span is ``(id, name, start, end, parent, query_id, thread, info)``.
``parent`` is the innermost open span on the same thread.  The shard
fan-out runs on ``repro-shard`` pool threads, so a span that opens on a
pool thread with no open span takes the open fan-out span
(``ShardedIndex`` ranking) as its parent.

``query_id`` is what :func:`set_query` last set on the span's thread
(the round of ``ingest_publish``).  A dispatcher-thread index call
answers a whole batch, so :func:`note_answer`, called from each query's
done callback, adds the query to that call's span instead, and the
span's ``query_id`` is then the list of queries it answered.  Spans stay
in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

_PERF = time.perf_counter


class Span(tuple):
    """One recorded call; a tuple so that appending is cheap."""

    __slots__ = ()
    sid = property(lambda self: self[0])
    name = property(lambda self: self[1])
    start = property(lambda self: self[2])
    end = property(lambda self: self[3])
    parent = property(lambda self: self[4])
    qid = property(lambda self: self[5])
    thread = property(lambda self: self[6])
    info = property(lambda self: self[7])

    @property
    def dur(self) -> float:
        return self[3] - self[2]


def _bundle_bytes(result):
    return {"bytes": sum(entry.stat().st_size
                         for entry in os.scandir(os.fspath(result))
                         if entry.is_file())}


def _rows(result):
    block = result[0] if isinstance(result, tuple) else result
    return {"rows": int(block.shape[0]) if block.ndim == 2 else 1}


def _requested_engine(_args, kwargs):
    return {"engine": kwargs.get("engine", "lanczos")}


def _writer_drift(args, _kwargs):
    return {"drift": float(args[0].drift)}


def targets():
    """``(owner, attribute, span name, before, after)`` per traced call.

    ``before(args, kwargs)`` and ``after(result)`` return a dict stored
    as the span's ``info``.  Owners are imported here, after the caller
    has put the program on ``sys.path``.
    """
    from repro.corpus import io as corpus_io
    from repro.linalg import incremental, svd
    from repro.serving import bundle, engine
    from repro.serving.engine import BatchQueryEngine
    from repro.serving.index import ServedIndex
    from repro.serving.sharded import ShardedIndex
    from repro.serving.writer import IndexWriter

    return [
        (engine, "stable_top_k", "engine.stable_top_k", None, None),
        (BatchQueryEngine, "__init__", "engine.build", None, None),
        (BatchQueryEngine, "from_precomputed", "engine.build", None,
         None),
        (BatchQueryEngine, "score_batch", "engine.score_batch", None,
         _rows),
        (BatchQueryEngine, "score", "engine.score", None, None),
        (BatchQueryEngine, "rank_batch", "engine.rank_batch", None,
         _rows),
        (BatchQueryEngine, "rank_batch_scored", "engine.rank_batch",
         None, _rows),
        (BatchQueryEngine, "rank_documents", "engine.rank_documents",
         None, None),
        (ServedIndex, "fit", "index.fit", None, None),
        (ServedIndex, "fit_streamed", "index.fit_streamed", None, None),
        (ServedIndex, "rank_batch", "index.rank_batch", None, _rows),
        (ServedIndex, "rank_batch_scored", "index.rank_batch", None,
         _rows),
        (ServedIndex, "rank_documents", "index.rank_documents", None,
         None),
        (ServedIndex, "score", "index.score", None, None),
        (ServedIndex, "add_documents", "index.add_documents", None,
         None),
        (ServedIndex, "remove_documents", "index.remove_documents",
         None, None),
        (ServedIndex, "refit", "index.refit", None, None),
        (ServedIndex, "save", "index.save", None, None),
        (ServedIndex, "load", "index.load", None, None),
        (ShardedIndex, "shard", "sharded.shard", None, None),
        (ShardedIndex, "rank_batch", "sharded.rank_batch", None, _rows),
        (ShardedIndex, "rank_batch_scored", "sharded.rank_batch", None,
         _rows),
        (ShardedIndex, "rank_documents", "sharded.rank_documents",
         None, None),
        (ShardedIndex, "save", "sharded.save", None, None),
        (ShardedIndex, "load", "sharded.load", None, None),
        (IndexWriter, "add_documents", "writer.add_documents", None,
         None),
        (IndexWriter, "remove_documents", "writer.remove_documents",
         None, None),
        (IndexWriter, "refit", "writer.refit", _writer_drift, None),
        (incremental.PartialSVD, "from_block", "incremental.from_block",
         _requested_engine, None),
        (incremental.PartialSVD, "from_svd_result",
         "incremental.from_svd_result", None, None),
        (incremental, "merge", "incremental.merge", None, None),
        (incremental, "block_updates", "incremental.block_updates",
         None, None),
        (svd, "truncated_svd", "svd.truncated_svd", _requested_engine,
         None),
        (bundle, "write_bundle", "bundle.write_bundle", None,
         _bundle_bytes),
        (bundle, "read_bundle", "bundle.read_bundle", None, None),
        (corpus_io, "corpus_column_blocks", "corpus.block", None, None),
    ]


#: Span names whose callers fan work out to pool threads.
FANOUT = frozenset({"sharded.rank_batch"})

#: Name prefix of the threads the shard fan-out runs on.
POOL_THREADS = "repro-shard"

#: The installed recorder, or None when the run is not traced.
ACTIVE: "Recorder | None" = None


def set_query(qid) -> None:
    """Tag spans opened on this thread with ``qid`` (None clears)."""
    if ACTIVE is not None:
        ACTIVE._local.qid = qid


def note_answer(qid) -> None:
    """Record that the span closed last on this thread answered ``qid``."""
    if ACTIVE is not None:
        sid = getattr(ACTIVE._local, "last_root", None)
        if sid is not None:
            ACTIVE.answered.setdefault(sid, []).append(qid)


class Patcher:
    """Replaces callables at run time and restores them on request."""

    def __init__(self):
        self._patches: "list[tuple[object, str, object]]" = []

    def _set(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute,
                              inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def replace(self, owner, attribute, make) -> None:
        """Swap ``owner.attribute`` for ``make(original_function)``.

        Classmethods stay classmethods; a module function is swapped in
        every ``repro`` module that holds the same object.
        """
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            self._set(owner, attribute, classmethod(make(raw.__func__)))
        elif inspect.isclass(owner):
            self._set(owner, attribute, make(raw))
        else:
            wrapped = make(raw)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, attribute, None) is raw:
                    self._set(module, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class Recorder(Patcher):
    """Collects spans from wrapped calls, in memory, from any thread."""

    def __init__(self):
        super().__init__()
        self.spans: "list[Span]" = []
        #: span id -> queries it answered (see :func:`note_answer`)
        self.answered: "dict[int, list]" = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout_parent = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.pool = threading.current_thread().name.startswith(
                POOL_THREADS)
        return stack

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, *, before, after):
        recorder = self
        fanout = name in FANOUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            elif recorder._local.pool:
                parent = recorder._fanout_parent
            else:
                parent = None
            sid = next(recorder._ids)
            stack.append(sid)
            if fanout:
                outer_fanout = recorder._fanout_parent
                recorder._fanout_parent = sid
            info = before(args, kwargs) if before is not None else None
            start = _PERF()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    info = after(result)
                return result
            finally:
                end = _PERF()
                stack.pop()
                if fanout:
                    recorder._fanout_parent = outer_fanout
                if parent is None:
                    recorder._local.last_root = sid
                recorder.spans.append(Span((
                    sid, name, start, end, parent,
                    getattr(recorder._local, "qid", None),
                    threading.current_thread().name, info)))

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time each ``next()`` of a generator function as one span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack = recorder._stack()
                parent = stack[-1] if stack else None
                sid = next(recorder._ids)
                start = _PERF()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                end = _PERF()
                recorder.spans.append(Span((
                    sid, name, start, end, parent,
                    getattr(recorder._local, "qid", None),
                    threading.current_thread().name, None)))
                yield item

        return wrapper

    def install(self) -> "Recorder":
        """Wrap every call listed by :func:`targets`; make this recorder
        the :data:`ACTIVE` one."""
        global ACTIVE
        ACTIVE = self
        for owner, attribute, name, before, after in targets():
            raw = inspect.getattr_static(owner, attribute)
            raw = getattr(raw, "__func__", raw)
            if inspect.isgeneratorfunction(raw):
                self.replace(owner, attribute, functools.partial(
                    self._wrap_generator, name))
            else:
                self.replace(owner, attribute, functools.partial(
                    self._wrap, name, before=before, after=after))
        return self

    def uninstall(self) -> None:
        global ACTIVE
        ACTIVE = None
        super().uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines (called once, at the end); a
        dispatcher-thread span's query id is the list it answered."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = list(span)
                if row[5] is None:
                    row[5] = self.answered.get(span.sid)
                handle.write(json.dumps(row) + "\n")
