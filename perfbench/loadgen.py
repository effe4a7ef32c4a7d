"""Single-threaded load generation against a ``MicroBatchDispatcher``.

Two phases, both driven from the caller's thread:

- :func:`open_loop` sends query ``i`` when it is due, at
  ``start + i / rate``, whether or not earlier queries have been
  answered (independent users).  Latency runs from the due time, so a
  stall is charged to every query it delays, and the generator's own
  lateness is recorded.
- :func:`closed_window` keeps a fixed number of queries outstanding and
  sends the next one as each answer arrives (callers that wait), which
  measures capacity.  It stops early, and says so, if it runs out of
  queries to send.

Each answer is noted with the span recorder (a no-op when the run is not
traced) as query ``"<phase name>:<i>"``.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import wait

import numpy as np

import tracing

_PERF = time.perf_counter

#: Longest wait for the last answers of a phase.
_DRAIN_TIMEOUT_S = 30.0


class PhaseLog:
    """Per-query timing and answers of one phase."""

    def __init__(self, n: int, name: str):
        self.name = name
        self.exhausted = False
        self.due = np.full(n, np.nan)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.query = np.full(n, -1, dtype=np.int64)
        self.answers: "list[np.ndarray | None]" = [None] * n
        self.errors: "dict[int, str]" = {}
        self.n = 0

    def trim(self) -> "PhaseLog":
        for name in ("due", "sent", "done", "query"):
            setattr(self, name, getattr(self, name)[:self.n])
        self.answers = self.answers[:self.n]
        return self

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


def _on_done(log: PhaseLog, i: int, signal=None):
    def callback(_future):
        log.done[i] = _PERF()
        tracing.note_answer(f"{log.name}:{i}")
        if signal is not None:
            signal.put(i)
    return callback


def _submit(dispatcher, log, i, vector, top_k, signal=None):
    """Send one query; a refused submit is a failure, not a crash."""
    log.sent[i] = _PERF()
    try:
        future = dispatcher.submit(vector, top_k=top_k)
    except Exception as error:  # any refusal counts as a failure
        log.errors[i] = f"submit refused: {error!r}"
        log.done[i] = log.sent[i]
        if signal is not None:
            signal.put(i)
        return None
    future.add_done_callback(_on_done(log, i, signal))
    return future


def _collect(log: PhaseLog, futures: dict) -> None:
    _, not_done = wait(list(futures.values()), timeout=_DRAIN_TIMEOUT_S)
    for i, future in futures.items():
        if future in not_done:
            log.errors[i] = "no answer before the drain timeout"
        elif future.exception() is not None:
            log.errors[i] = f"exception: {future.exception()!r}"
        else:
            log.answers[i] = future.result()


def open_loop(dispatcher, vector_of, pick, *, rate: float,
              seconds: float, top_k: int, name: str) -> PhaseLog:
    """Send ``rate * seconds`` queries on a fixed schedule.

    Args:
        dispatcher: the dispatcher under test.
        vector_of: query number → dense term vector.
        pick: sequence of query numbers, one per send, in send order.
        rate: offered queries per second.
        seconds: length of the schedule.
        top_k: cutoff of every query.
        name: the phase's name, which prefixes its query ids.
    """
    n = int(round(rate * seconds))
    log = PhaseLog(n, name)
    futures = {}
    start = _PERF() + 0.01
    for i in range(n):
        due = start + i / rate
        log.due[i] = due
        log.query[i] = pick[i]
        vector = vector_of(pick[i])
        pause = due - _PERF()
        if pause > 0:
            time.sleep(pause)
        future = _submit(dispatcher, log, i, vector, top_k)
        if future is not None:
            futures[i] = future
    log.n = n
    _collect(log, futures)
    return log.trim()


def closed_window(dispatcher, vector_of, pick, *, depth: int,
                  seconds: float, top_k: int, name: str) -> PhaseLog:
    """Keep ``depth`` queries outstanding for ``seconds``.

    Each query's latency runs from its send.  If ``pick`` runs out
    first, the window ends there and ``log.exhausted`` is set.
    """
    log = PhaseLog(len(pick), name)
    signal: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    futures = {}
    deadline = _PERF() + seconds

    def send(i):
        log.query[i] = pick[i]
        vector = vector_of(pick[i])
        log.due[i] = _PERF()
        future = _submit(dispatcher, log, i, vector, top_k, signal)
        if future is not None:
            futures[i] = future

    sent = 0
    for _ in range(min(depth, len(pick))):
        send(sent)
        sent += 1
    while _PERF() < deadline and sent < len(pick):
        signal.get(timeout=_DRAIN_TIMEOUT_S)
        send(sent)
        sent += 1
    log.exhausted = _PERF() < deadline
    log.n = sent
    _collect(log, futures)
    return log.trim()


def backlog_reason(log: PhaseLog, limit_ms: float) -> "str | None":
    """Why an open-loop phase saturated, or None if it kept up.

    Two signs: the last answer came more than the latency limit after
    the last query was due (the queue did not drain), or the generator
    fell behind its schedule by more at the end than at the start.
    """
    drain_ms = (np.nanmax(log.done) - log.due[-1]) * 1e3
    if drain_ms > limit_ms:
        return f"drain {drain_ms:.1f} ms after the last send"
    quarter = max(1, log.n // 4)
    late = log.late_ms
    growth = float(np.mean(late[-quarter:]) - np.mean(late[:quarter]))
    if growth > limit_ms / 2:
        return f"generator lateness grew by {growth:.1f} ms"
    return None
