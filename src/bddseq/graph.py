"""Netlist-to-graph conversion with truth-table and structural node features.

Every primary input and gate becomes a node; edges run from driver to
consumer. A gate's feature vector is its padded truth table followed by four
structural scalars (topological rank, depth, fan-in, fan-out); primary inputs
carry an all-zero truth-table segment. One topological pass places the nodes:
the rank is the row, the depth is written with the truth tables, and fan-in
and fan-out are counted over the edges (an output listing adds one fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blif import LogicGate, Netlist, exhaustive_columns, lane_algebra


@dataclass
class FeatureConfig:
    max_table_len: int = 16  # power of two; bounds gate arity at log2
    normalize_structural: bool = True

    def __post_init__(self):
        L = self.max_table_len
        if L < 4 or (L & (L - 1)) != 0:
            raise ValueError("max_table_len must be a power of two >= 4")


@dataclass
class CircuitGraph:
    node_names: list[str]  # primary inputs first, then gates topologically
    edges: list[tuple[int, int]]
    features: np.ndarray  # (N, L + 4) floats, consumed by the encoder
    pi_positions: list[int]

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_pis(self) -> int:
        return len(self.pi_positions)


def disjoint_union(graphs: list[CircuitGraph]) -> CircuitGraph:
    """One graph holding every given graph as a component, in order.

    Node, edge and primary-input indices of each graph are offset by the
    node count of the graphs before it; this is how a minibatch of graphs is
    encoded in one pass (Fey & Lenssen, PyTorch Geometric, 2019).
    """
    names: list[str] = []
    edges: list[tuple[int, int]] = []
    pis: list[int] = []
    for g in graphs:
        offset = len(names)
        names += g.node_names
        edges += [(u + offset, v + offset) for u, v in g.edges]
        pis += [p + offset for p in g.pi_positions]
    return CircuitGraph(
        node_names=names,
        edges=edges,
        features=np.concatenate([g.features for g in graphs]),
        pi_positions=pis,
    )


def truth_table_embedding(gate: LogicGate, max_table_len: int) -> np.ndarray:
    """Bit vector of the gate function over lexicographic input combinations.

    Index i enumerates assignments with the first input most significant;
    entries past 2^arity are zero padding.
    """
    n = gate.arity
    if (1 << n) > max_table_len:
        raise ValueError(
            f"gate '{gate.output}' arity {n} does not fit table length "
            f"{max_table_len}; bound fan-in first"
        )
    table = gate.apply(exhaustive_columns(n), *lane_algebra(1 << n))
    vec = np.zeros(max_table_len, dtype=np.float64)
    vec[: 1 << n] = [(table >> i) & 1 for i in range(1 << n)]
    return vec


def blif2graph(netlist: Netlist, config: FeatureConfig) -> CircuitGraph:
    L = config.max_table_len
    topo = netlist.topo_gates()
    names = list(netlist.primary_inputs) + [g.output for g in topo]
    index = {s: i for i, s in enumerate(names)}
    edges = [(index[s], index[g.output]) for g in topo for s in g.inputs]

    n_nodes = len(names)
    features = np.zeros((n_nodes, L + 4), dtype=np.float64)
    features[:, L] = np.arange(n_nodes)
    depth = features[:, L + 1]
    for i, g in enumerate(topo, len(netlist.primary_inputs)):
        features[i, :L] = truth_table_embedding(g, L)
        depth[i] = 1 + max((depth[index[s]] for s in g.inputs), default=-1)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    listed = np.array([index[s] for s in netlist.primary_outputs], dtype=np.intp)
    features[:, L + 2] = np.bincount(ends[:, 1], minlength=n_nodes)
    features[:, L + 3] = np.bincount(np.concatenate([ends[:, 0], listed]), minlength=n_nodes)
    if config.normalize_structural and n_nodes > 0:
        scalars = features[:, L:]
        lo = scalars.min(axis=0)
        hi = scalars.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        features[:, L:] = (scalars - lo) / span

    return CircuitGraph(
        node_names=names,
        edges=edges,
        features=features,
        pi_positions=list(range(len(netlist.primary_inputs))),
    )
