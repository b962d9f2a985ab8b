"""Structural validation for model graphs.

Builders construct graphs incrementally with per-op checks; this module adds
whole-graph invariants (topological order of the stored list, which implies
acyclicity, and reachability from the graph inputs) that are cheap enough to
run in tests and at deserialisation time. Both are single passes over the
stored order; networkx is imported only by :func:`to_networkx`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GraphError
from repro.graphs.graph import ModelGraph

if TYPE_CHECKING:
    import networkx as nx


def to_networkx(graph: ModelGraph) -> nx.DiGraph:
    """Export the operator dependency structure as a :class:`networkx.DiGraph`.

    Node keys are operator indices; edges carry the tensor name that induces
    the dependency.
    """
    import networkx as nx

    g = nx.DiGraph(name=graph.name)
    g.add_nodes_from(range(len(graph)))
    prod = graph.producer
    for j, op in enumerate(graph.operators):
        for t in op.inputs:
            if t.name in prod:
                g.add_edge(prod[t.name], j, tensor=t.name)
    return g


def validate_graph(graph: ModelGraph) -> None:
    """Raise :class:`GraphError` unless ``graph`` satisfies all invariants.

    Invariants:

    * at least one operator and one graph input;
    * the stored operator order is topological (every edge goes forward),
      so the dependency graph is acyclic;
    * every operator is reachable from some graph input;
    * at least one graph output exists.
    """
    if not graph.operators:
        raise GraphError(f"{graph.name}: graph has no operators")
    if not graph.inputs:
        raise GraphError(f"{graph.name}: graph has no inputs")

    prod = graph.producer
    input_names = {t.name for t in graph.inputs}
    for j, op in enumerate(graph.operators):
        for t in op.inputs:
            if t.name in prod:
                if prod[t.name] >= j:
                    raise GraphError(
                        f"{graph.name}: stored order is not topological — "
                        f"{op.name!r} (index {j}) consumes {t.name!r} produced "
                        f"at index {prod[t.name]}"
                    )
            elif t.name not in input_names:
                raise GraphError(
                    f"{graph.name}: {op.name!r} consumes undefined tensor {t.name!r}"
                )

    # Reachability from inputs: an op is fed by the input if it consumes a
    # graph input tensor or any of its producers is fed. The stored order
    # is topological (checked above), so one forward pass settles it.
    reachable: set[int] = set()
    for j, op in enumerate(graph.operators):
        if any(
            t.name in input_names or prod.get(t.name) in reachable
            for t in op.inputs
        ):
            reachable.add(j)
    if not reachable:
        raise GraphError(f"{graph.name}: no operator consumes a graph input")
    unreachable = set(range(len(graph))) - reachable
    if unreachable:
        names = [graph.operators[i].name for i in sorted(unreachable)][:5]
        raise GraphError(
            f"{graph.name}: {len(unreachable)} operator(s) unreachable from "
            f"graph inputs, e.g. {names}"
        )

    if not graph.output_tensors:
        raise GraphError(f"{graph.name}: graph has no outputs")
