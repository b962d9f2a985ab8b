"""Frozen GA child loop (revision b5747ad), verbatim.

Before :meth:`GeneticSplitter._next_generation` bred children over
Python lists, it bred them with numpy calls on 1-4-element arrays
through three helper methods and the array repair
``repro.splitting.search_space._repair_row``. The loop, its helpers and
the repair are kept here, unmodified, as the *old* side of the GA oracle
(``test_genetic_oracle.py``): :class:`LegacyGeneticSplitter` runs the
current search with the frozen child loop.

Do not fix, extend, or "clean up" this module: its only value is being
exactly what shipped before the child loop was rewritten.
"""

from __future__ import annotations

import numpy as np

from repro.splitting.genetic import GeneticSplitter


def _repair_row(
    rng: np.random.Generator, row: np.ndarray, n_ops: int
) -> np.ndarray:
    """Make a sorted row strictly increasing within [0, n_ops - 2].

    Duplicate cut positions (common after searchsorted or crossover) are
    resampled from the unused positions.
    """
    row = np.sort(np.clip(row, 0, n_ops - 2))
    k = len(row)
    if len(np.unique(row)) == k:
        return row
    used = set(np.unique(row).tolist())
    free = [p for p in range(n_ops - 1) if p not in used]
    rng.shuffle(free)
    seen: set[int] = set()
    fixed = []
    for v in row.tolist():
        if v in seen:
            v = free.pop()
        seen.add(v)
        fixed.append(v)
    return np.sort(np.asarray(fixed, dtype=np.int64))


class LegacyGeneticSplitter(GeneticSplitter):
    def _select_parent(
        self, rng: np.random.Generator, pop: np.ndarray, fit: np.ndarray
    ) -> np.ndarray:
        """Tournament selection (robust to the fitness's negative range)."""
        idx = rng.integers(0, len(pop), size=self.config.tournament_size)
        return pop[idx[np.argmax(fit[idx])]]

    def _crossover(
        self,
        rng: np.random.Generator,
        a: np.ndarray,
        b: np.ndarray,
        n_ops: int,
    ) -> np.ndarray:
        """Single-point crossover on the sorted chromosome, with repair."""
        k = len(a)
        if k == 1:
            child = a.copy() if rng.random() < 0.5 else b.copy()
            return child
        point = int(rng.integers(1, k))
        child = np.concatenate([a[:point], b[point:]])
        return _repair_row(rng, child, n_ops)

    def _mutate(
        self, rng: np.random.Generator, row: np.ndarray, n_ops: int
    ) -> np.ndarray:
        """Perturb each gene locally with probability ``mutation_prob``."""
        cfg = self.config
        mask = rng.random(len(row)) < cfg.mutation_prob
        if not mask.any():
            return row
        steps = rng.integers(-cfg.mutation_step, cfg.mutation_step + 1, len(row))
        mutated = row + np.where(mask, steps, 0)
        return _repair_row(rng, mutated, n_ops)

    def _next_generation(
        self,
        rng: np.random.Generator,
        pop: np.ndarray,
        fit: np.ndarray,
        n_ops: int,
    ) -> np.ndarray:
        cfg = self.config
        n_elite = max(1, int(round(cfg.elite_fraction * len(pop))))
        elite_idx = np.argsort(fit)[::-1][:n_elite]
        children = [pop[i].copy() for i in elite_idx]
        while len(children) < len(pop):
            a = self._select_parent(rng, pop, fit)
            if rng.random() < cfg.crossover_prob:
                b = self._select_parent(rng, pop, fit)
                child = self._crossover(rng, a, b, n_ops)
            else:
                child = a.copy()
            children.append(self._mutate(rng, child, n_ops))
        return np.vstack(children)
