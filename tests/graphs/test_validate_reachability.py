"""Reachability without networkx, checked against networkx.

:func:`~repro.graphs.validate.validate_graph` finds the operators fed by
a graph input in one forward pass over the (topological) stored order.
On random DAGs with input-less islands, its verdict must name exactly
the operators that are not networkx descendants of an input consumer.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graphs.graph import ModelGraph
from repro.graphs.operator import Operator
from repro.graphs.tensor import TensorSpec
from repro.graphs.validate import to_networkx, validate_graph
from repro.types import OpType


def _random_dag(seed: int) -> ModelGraph:
    """Ops in topological order; each consumes up to three earlier tensors
    (or the graph input), and some consume nothing at all."""
    rng = random.Random(seed)
    g = ModelGraph(name=f"dag{seed}", inputs=(TensorSpec("input", (4,)),))
    tensors = ["input"]
    for j in range(rng.randint(1, 30)):
        if rng.random() < 0.15:
            names: list[str] = []
        else:
            names = rng.sample(tensors, min(len(tensors), rng.randint(1, 3)))
        g.operators.append(
            Operator(
                f"op{j}",
                OpType.RELU,
                tuple(TensorSpec(n, (4,)) for n in names),
                (TensorSpec(f"t{j}", (4,)),),
            )
        )
        tensors.append(f"t{j}")
    return g


def _unreachable_by_networkx(graph: ModelGraph) -> list[str]:
    dag = to_networkx(graph)
    reachable: set[int] = set()
    for j, op in enumerate(graph.operators):
        if any(t.name == "input" for t in op.inputs):
            reachable |= {j} | nx.descendants(dag, j)
    return [
        op.name for j, op in enumerate(graph.operators) if j not in reachable
    ]


@pytest.mark.parametrize("seed", range(200))
def test_unreachable_set_matches_networkx(seed):
    graph = _random_dag(seed)
    unreachable = _unreachable_by_networkx(graph)
    if len(unreachable) == len(graph):
        with pytest.raises(GraphError, match="no operator consumes"):
            validate_graph(graph)
    elif unreachable:
        with pytest.raises(GraphError) as info:
            validate_graph(graph)
        assert str(info.value) == (
            f"{graph.name}: {len(unreachable)} operator(s) unreachable from "
            f"graph inputs, e.g. {unreachable[:5]}"
        )
    else:
        validate_graph(graph)
