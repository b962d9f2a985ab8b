"""Splitting-candidate space: counting, enumeration and guided sampling.

Splitting M operators into N blocks means choosing N-1 of the M-1 gaps, so
the space has C(M-1, N-1) candidates — 287,980 for ResNet50 at N=3 (§2.2),
which is why the paper replaces exhaustive profiling with a guided GA.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from repro.errors import SearchError
from repro.profiling.records import ModelProfile


def count_candidates(n_ops: int, n_blocks: int) -> int:
    """C(M-1, N-1): number of distinct splittings of M ops into N blocks."""
    if n_blocks < 1 or n_ops < 1:
        raise SearchError("n_ops and n_blocks must be >= 1")
    if n_blocks > n_ops:
        return 0
    return math.comb(n_ops - 1, n_blocks - 1)


def enumerate_cuts(
    n_ops: int, n_blocks: int, stride: int = 1
) -> Iterator[tuple[int, ...]]:
    """Yield all cut-point tuples, optionally on a strided grid of positions.

    ``stride > 1`` coarsens the candidate grid (used by the exhaustive
    baseline to stay tractable on large models).
    """
    if stride < 1:
        raise SearchError("stride must be >= 1")
    positions = range(0, n_ops - 1, stride)
    yield from itertools.combinations(positions, n_blocks - 1)


def sample_cuts_uniform(
    rng: np.random.Generator, n_ops: int, n_blocks: int, size: int
) -> np.ndarray:
    """Uniformly random cut sets (rows sorted), shape (size, n_blocks - 1)."""
    k = n_blocks - 1
    if k == 0:
        return np.zeros((size, 0), dtype=np.int64)
    if k > n_ops - 1:
        raise SearchError(f"cannot place {k} cuts among {n_ops - 1} positions")
    out = np.empty((size, k), dtype=np.int64)
    for i in range(size):
        out[i] = np.sort(rng.choice(n_ops - 1, size=k, replace=False))
    return out


def sample_cuts_observation_guided(
    rng: np.random.Generator,
    profile: ModelProfile,
    n_blocks: int,
    size: int,
    jitter: float = 0.08,
) -> np.ndarray:
    """Observation-guided initial population (§3.2).

    Encodes both observations: candidates are seeded near the *time-even*
    positions (cumulative time fractions j/m), which by construction sit
    past the front-loaded early operators — avoiding the expensive early
    cuts (Fig. 2a) and starting close to even splits (Fig. 2b). Gaussian
    jitter on the time fractions keeps the population diverse.
    """
    k = n_blocks - 1
    if k == 0:
        return np.zeros((size, 0), dtype=np.int64)
    n_ops = profile.n_ops
    if k > n_ops - 1:
        raise SearchError(f"cannot place {k} cuts among {n_ops - 1} positions")
    total = profile.total_ms
    targets = np.arange(1, n_blocks) / n_blocks  # ideal cumulative fractions
    out = np.empty((size, k), dtype=np.int64)
    prefix = profile.prefix_ms
    for i in range(size):
        frac = np.clip(targets + rng.normal(0.0, jitter, size=k), 0.02, 0.98)
        # Map time fractions to the op index whose cumulative time reaches it.
        idx = np.searchsorted(prefix, frac * total)
        idx = np.clip(idx, 0, n_ops - 2)
        out[i] = _repair_row(rng, np.sort(idx), n_ops)
    return out


def _repair_row(
    rng: np.random.Generator, row: np.ndarray, n_ops: int
) -> np.ndarray:
    """Array form of :func:`_repair_cuts`."""
    return np.asarray(_repair_cuts(rng, row.tolist(), n_ops), dtype=np.int64)


def _repair_cuts(rng: np.random.Generator, row: list[int], n_ops: int) -> list[int]:
    """Make a row strictly increasing within [0, n_ops - 2], sorted.

    Duplicate cut positions (common after searchsorted or crossover) are
    resampled from the unused positions.
    """
    hi = n_ops - 2
    row = sorted(min(max(v, 0), hi) for v in row)
    used = set(row)
    if len(used) == len(row):
        return row
    free = [p for p in range(hi + 1) if p not in used]
    rng.shuffle(free)
    seen: set[int] = set()
    fixed = []
    for v in row:
        if v in seen:
            v = free.pop()
        seen.add(v)
        fixed.append(v)
    return sorted(fixed)
