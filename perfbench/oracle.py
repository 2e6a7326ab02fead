"""Independent brute-force Okapi BM25: every query scores every chunk.

It shares no code with ``keyrag.bm25``: it re-tokenizes the chunk texts the
benchmark generated and writes the formula out again,
``idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1)`` and
``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg_len))``, summed over
query tokens in query order. Zero scores are never returned; ties keep chunk
order.
"""
from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

_WORD = re.compile(r"[^\W_]+")


def tokens(text: str) -> list[str]:
    return [m.group().lower() for m in _WORD.finditer(text)]


class BruteForceBm25:
    def __init__(self, chunk_ids: list[str], texts: list[str], k1: float = 1.5, b: float = 0.75):
        self.ids = chunk_ids
        self.k1 = k1
        self._counts = [Counter(tokens(t)) for t in texts]
        lens = [sum(c.values()) for c in self._counts]
        avg = sum(lens) / len(lens)
        self._norm = 1.0 - b + b * (np.array(lens, dtype=np.float64) / avg)
        self._tf: dict[str, np.ndarray] = {}

    def _tf_of(self, term: str) -> np.ndarray:
        tf = self._tf.get(term)
        if tf is None:
            tf = np.array([c.get(term, 0) for c in self._counts], dtype=np.float64)
            self._tf[term] = tf
        return tf

    def top_k(self, query: str, k: int) -> list[tuple[str, float]]:
        n = len(self.ids)
        scores = np.zeros(n)
        for term in tokens(query):
            tf = self._tf_of(term)
            df = int(np.count_nonzero(tf))
            if df == 0:
                continue
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            hit = tf > 0
            scores[hit] += idf * tf[hit] * (self.k1 + 1.0) / (tf[hit] + self.k1 * self._norm[hit])
        order = np.argsort(-scores, kind="stable")[:k]
        return [(self.ids[i], float(scores[i])) for i in order if scores[i] > 0.0]
