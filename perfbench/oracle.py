"""Brute-force reference rankings, written from the paper's definitions.

The oracle shares no code with the serving path under test: it
projects queries onto the basis, takes plain cosines against the LSI
document vectors with ``np.linalg.norm``, and compares each served
ranking to those scores with a tolerance, so that two documents whose
scores tie to the last few ULPs may come in either order, while a
document that does not belong in the top ``k`` is a failure.
"""

from __future__ import annotations

import numpy as np

#: Score slack within which a served order may differ from the oracle.
SCORE_TOL = 1e-9


def cosine_scores(term_basis, doc_vectors, queries, dead=None):
    """``(q, m)`` cosines of dense ``(n, q)`` queries; dead ids get -inf.

    Zero-norm queries and documents score 0, as the paper's cosine
    does not exist for them and the program defines them as 0.
    """
    projected = term_basis.T @ queries
    q_norm = np.linalg.norm(projected, axis=0)
    d_norm = np.linalg.norm(doc_vectors, axis=0)
    scores = projected.T @ doc_vectors
    denominator = np.outer(q_norm, d_norm)
    live = denominator > 0
    scores = np.where(live, scores / np.where(live, denominator, 1.0),
                      0.0)
    if dead is not None and dead.any():
        scores[:, dead] = -np.inf
    return scores


def ranking_error(ids, scores, top_k, dead):
    """Why ``ids`` is not a valid top-``top_k`` of ``scores``, or None.

    Args:
        ids: the served ranking, best first.
        scores: the oracle's scores of every document for this query.
        top_k: the requested cutoff.
        dead: boolean mask of tombstoned ids at the time of the answer.
    """
    ids = np.asarray(ids)
    n_docs = scores.shape[0]
    expected = min(top_k, n_docs - int(dead.sum()))
    if ids.shape != (expected,):
        return f"length {ids.shape} != ({expected},)"
    if ids.size and (ids.min() < 0 or ids.max() >= n_docs):
        return "id out of range"
    if np.unique(ids).size != ids.size:
        return "duplicate id"
    if dead[ids].any():
        return "tombstoned id ranked"
    served = scores[ids]
    if np.any(np.diff(served) > SCORE_TOL):
        return "not in descending score order"
    if expected:
        kth = np.partition(scores, n_docs - expected)[n_docs - expected]
        if served.min() < kth - SCORE_TOL:
            return "document outside the top-k"
    return None


def top_k_overlap(ids_a, ids_b) -> float:
    """``|a ∩ b| / k`` of two equal-length rankings."""
    if len(ids_a) == 0:
        return 1.0
    return np.intersect1d(ids_a, ids_b).size / len(ids_a)
