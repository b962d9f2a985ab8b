"""The GA's child loop, pinned to the frozen numpy loop.

:meth:`GeneticSplitter._next_generation` breeds children over Python
lists with exactly the ``rng`` calls of the frozen loop in
``_legacy_ga.py``. Every search must therefore match it exactly: cuts,
fitness, sigma, overhead, generation and evaluation counts, and the full
per-generation history. The matrix is the fleet's 15 per-class profiles
(3 device classes x 5 evaluated models) x m in 2..5 x 3 seeds, plus tiny
synthetic profiles under heavy mutation, where the repair path runs on
most children. The list repair behind ``_repair_row`` must also match the
frozen array repair draw for draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.fleet import _cross_calibrated_profiles
from repro.cluster.inventory import DEFAULT_INVENTORY, parse_inventory
from repro.hardware.presets import PRESETS
from repro.splitting.genetic import GAConfig, GeneticSplitter, SplitResult
from repro.splitting.search_space import _repair_row
from repro.zoo.registry import EVALUATED_MODELS

from tests.conftest import make_profile
from tests.splitting import _legacy_ga
from tests.splitting._legacy_ga import LegacyGeneticSplitter

DEVICES = tuple(nc.device_name for nc in parse_inventory(DEFAULT_INVENTORY))


@pytest.fixture(scope="module")
def fleet_profiles():
    ref = PRESETS[DEVICES[0]]()
    return {
        device: _cross_calibrated_profiles(EVALUATED_MODELS, PRESETS[device](), ref)
        for device in DEVICES
    }


def _footprint(result: SplitResult) -> tuple:
    return (
        result.cuts,
        result.fitness,
        result.sigma_ms,
        result.overhead_fraction,
        result.generations_run,
        result.evaluations,
        result.converged_early,
        result.history,
    )


def _assert_same_search(profile, n_blocks: int, config: GAConfig) -> None:
    new = GeneticSplitter(config).search(profile, n_blocks)
    old = LegacyGeneticSplitter(config).search(profile, n_blocks)
    assert _footprint(new) == _footprint(old), (profile.model_name, n_blocks, config)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("model", EVALUATED_MODELS)
def test_fleet_profiles_match_frozen_loop(fleet_profiles, device, model):
    profile = fleet_profiles[device][model]
    for n_blocks in range(2, 6):
        for seed in range(3):
            _assert_same_search(profile, n_blocks, GAConfig(seed=seed))


@pytest.mark.parametrize("n_ops", [4, 7, 12])
def test_heavy_mutation_matches_frozen_loop(n_ops):
    rng = np.random.default_rng(n_ops)
    profile = make_profile(
        rng.uniform(0.5, 4.0, size=n_ops),
        cut_costs=rng.uniform(0.05, 0.5, size=n_ops - 1),
    )
    config = dict(mutation_prob=0.9, mutation_step=8, crossover_prob=1.0, patience=30)
    for n_blocks in range(2, min(n_ops, 6)):
        for seed in range(3):
            _assert_same_search(profile, n_blocks, GAConfig(seed=seed, **config))


def test_repair_matches_frozen_repair():
    gen = np.random.default_rng(11)
    for trial in range(2000):
        n_ops = int(gen.integers(2, 40))
        k = int(gen.integers(1, min(n_ops - 1, 6) + 1))
        row = gen.integers(-5, n_ops + 5, size=k)
        new_rng, old_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        new = _repair_row(new_rng, row.copy(), n_ops)
        old = _legacy_ga._repair_row(old_rng, row.copy(), n_ops)
        assert new.dtype == old.dtype and new.tolist() == old.tolist(), (row, n_ops)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
