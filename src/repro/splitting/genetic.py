"""The paper's genetic algorithm for evenly-sized model splitting (§3.3).

Chromosome: a sorted vector of ``m - 1`` distinct cut positions.
Fitness: Eq. 2 (evenness + overhead penalties), evaluated for the whole
population at once via prefix-sum block times (NumPy, no per-candidate
Python loops). The population is initialised with the observation-guided
sampler (§3.2: seed cuts near time-even positions, away from the expensive
front of the model); selection is fitness-proportional with tournament
fallback, crossover is single-point on the sorted chromosome with repair,
mutation perturbs individual cuts locally, and an elite fraction survives
unchanged. Termination: generation budget or a stall of ``patience``
generations (the paper's "result remains unchanged for a certain number of
iterations").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SearchError
from repro.profiling.records import ModelProfile
from repro.splitting.exhaustive import evaluate_cut_matrix
from repro.splitting.fitness import fitness
from repro.splitting.partition import Partition
from repro.splitting.search_space import (
    _repair_cuts,
    sample_cuts_observation_guided,
    sample_cuts_uniform,
)
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the splitting GA."""

    population_size: int = 40
    generations: int = 30
    crossover_prob: float = 0.7
    mutation_prob: float = 0.15
    mutation_step: int = 4
    elite_fraction: float = 0.10
    tournament_size: int = 3
    patience: int = 8
    #: Fraction of the initial population drawn with the observation-guided
    #: sampler; the rest is uniform (diversity). 0 disables guidance — used
    #: by the ablation benchmarks.
    guided_init_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise SearchError("population_size must be >= 4")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise SearchError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise SearchError("mutation_prob must be in [0, 1]")
        if not 0.0 <= self.elite_fraction <= 0.5:
            raise SearchError("elite_fraction must be in [0, 0.5]")
        if not 0.0 <= self.guided_init_fraction <= 1.0:
            raise SearchError("guided_init_fraction must be in [0, 1]")
        if self.generations < 1:
            raise SearchError("generations must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation record (Fig. 5 plots these)."""

    generation: int
    best_fitness: float
    best_sigma_ms: float
    best_overhead_fraction: float
    mean_fitness: float


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one GA run for a fixed block count."""

    partition: Partition
    fitness: float
    sigma_ms: float
    overhead_fraction: float
    generations_run: int
    evaluations: int
    converged_early: bool
    history: tuple[GenerationStats, ...] = field(repr=False)

    @property
    def cuts(self) -> tuple[int, ...]:
        return self.partition.cuts


class GeneticSplitter:
    """Evenly-sized model splitting via the observation-guided GA."""

    def __init__(self, config: GAConfig | None = None):
        self.config = config or GAConfig()

    def search(self, profile: ModelProfile, n_blocks: int) -> SplitResult:
        """Find a high-fitness ``n_blocks``-way partition of ``profile``."""
        cfg = self.config
        if n_blocks < 2:
            raise SearchError("GA splitting needs n_blocks >= 2")
        k = n_blocks - 1
        n_ops = profile.n_ops
        if k > n_ops - 1:
            raise SearchError(
                f"cannot split {n_ops} operators into {n_blocks} blocks"
            )
        rng = rng_from(cfg.seed, "ga", profile.model_name, n_blocks)

        pop = self._initial_population(rng, profile, n_blocks)
        sigma, overhead = evaluate_cut_matrix(profile, pop)
        fit = np.asarray(fitness(sigma, profile.total_ms, overhead, n_blocks))
        evaluations = len(pop)

        history: list[GenerationStats] = []
        best_fit = -np.inf
        best_row: np.ndarray | None = None
        best_sigma = best_overhead = 0.0
        stall = 0
        generations_run = 0
        converged_early = False

        for gen in range(cfg.generations):
            generations_run = gen + 1
            i_best = int(np.argmax(fit))
            improved = fit[i_best] > best_fit + 1e-12
            if improved:
                best_fit = float(fit[i_best])
                best_row = pop[i_best].copy()
                best_sigma = float(sigma[i_best])
                best_overhead = float(overhead[i_best])
                stall = 0
            else:
                stall += 1
            history.append(
                GenerationStats(
                    generation=gen,
                    best_fitness=best_fit,
                    best_sigma_ms=best_sigma,
                    best_overhead_fraction=best_overhead,
                    mean_fitness=float(fit.mean()),
                )
            )
            if stall >= cfg.patience:
                converged_early = True
                break
            if gen == cfg.generations - 1:
                break

            pop = self._next_generation(rng, pop, fit, n_ops)
            sigma, overhead = evaluate_cut_matrix(profile, pop)
            fit = np.asarray(fitness(sigma, profile.total_ms, overhead, n_blocks))
            evaluations += len(pop)

        assert best_row is not None
        return SplitResult(
            partition=Partition(
                profile=profile, cuts=tuple(int(c) for c in best_row)
            ),
            fitness=best_fit,
            sigma_ms=best_sigma,
            overhead_fraction=best_overhead,
            generations_run=generations_run,
            evaluations=evaluations,
            converged_early=converged_early,
            history=tuple(history),
        )

    # ------------------------------------------------------------------ steps
    def _initial_population(
        self,
        rng: np.random.Generator,
        profile: ModelProfile,
        n_blocks: int,
    ) -> np.ndarray:
        cfg = self.config
        n_guided = int(round(cfg.population_size * cfg.guided_init_fraction))
        n_uniform = cfg.population_size - n_guided
        parts = []
        if n_guided:
            parts.append(
                sample_cuts_observation_guided(rng, profile, n_blocks, n_guided)
            )
        if n_uniform:
            parts.append(
                sample_cuts_uniform(rng, profile.n_ops, n_blocks, n_uniform)
            )
        return np.vstack(parts)

    def _next_generation(
        self,
        rng: np.random.Generator,
        pop: np.ndarray,
        fit: np.ndarray,
        n_ops: int,
    ) -> np.ndarray:
        """Elites, then tournament-selected children: single-point
        crossover and local mutation, each repaired to distinct cuts.

        A chromosome holds only ``m - 1`` genes, so the child loop runs
        over Python lists; numpy calls on arrays that small cost more
        than the work they do.
        """
        cfg = self.config
        n = len(pop)
        n_elite = max(1, int(round(cfg.elite_fraction * n)))
        elite_idx = np.argsort(fit)[::-1][:n_elite]
        rows: list[list[int]] = pop.tolist()
        fits: list[float] = fit.tolist()
        k = pop.shape[1]
        ts, step = cfg.tournament_size, cfg.mutation_step

        def select() -> list[int]:
            # Tournament selection (robust to the fitness's negative
            # range); ties go to the first contender, as np.argmax.
            best = -1
            for i in rng.integers(0, n, size=ts).tolist():
                if best < 0 or fits[i] > fits[best]:
                    best = i
            return rows[best]

        children = [rows[i] for i in elite_idx]
        while len(children) < n:
            child = select()
            if rng.random() < cfg.crossover_prob:
                b = select()
                if k == 1:
                    child = child if rng.random() < 0.5 else b
                else:
                    point = int(rng.integers(1, k))
                    child = _repair_cuts(rng, child[:point] + b[point:], n_ops)
            # Mutation: perturb each gene with probability mutation_prob.
            mask = [u < cfg.mutation_prob for u in rng.random(k).tolist()]
            if any(mask):
                steps = rng.integers(-step, step + 1, k).tolist()
                child = _repair_cuts(
                    rng,
                    [v + d if m else v for v, d, m in zip(child, steps, mask)],
                    n_ops,
                )
            children.append(child)
        return np.array(children, dtype=np.int64)
