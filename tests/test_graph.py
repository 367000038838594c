import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq.bdd import VarOrder, build_from_netlist
from bddseq.blif import LogicGate, Netlist, parse_blif
from bddseq.gen import random_cover_netlist
from bddseq.graph import FeatureConfig, blif2graph, truth_table_embedding
from tests.reference import gate_eval, structural_reference


def test_truth_table_and2_padded():
    gate = LogicGate(["a", "b"], "o", ["11"])
    assert truth_table_embedding(gate, 8).tolist() == [0, 0, 0, 1, 0, 0, 0, 0]


def test_truth_table_or2():
    gate = LogicGate(["a", "b"], "o", ["1-", "-1"])
    assert truth_table_embedding(gate, 4).tolist() == [0, 1, 1, 1]


def test_truth_table_inverter():
    gate = LogicGate(["a"], "o", ["0"])
    assert truth_table_embedding(gate, 4).tolist() == [1, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 1),
            st.lists(st.text("01-", min_size=n, max_size=n), max_size=5),
        )
    )
)
def test_truth_table_matches_one_bit_eval(case):
    # covers of either polarity, empty covers included, against the one-bit
    # eval, over bit lanes and over the one-gate netlist's diagram
    n, polarity, patterns = case
    gate = LogicGate([f"i{j}" for j in range(n)], "o", patterns, polarity)
    assignments = [[(i >> (n - 1 - j)) & 1 for j in range(n)] for i in range(1 << n)]
    expected = [gate_eval(gate, bits) for bits in assignments]
    assert truth_table_embedding(gate, 16).tolist() == expected + [0] * (16 - (1 << n))
    mgr, (root,) = build_from_netlist(Netlist("g", gate.inputs, ["o"], [gate]), VarOrder.identity(n))
    assert [mgr.eval(root, bits) for bits in assignments] == expected


def test_truth_table_arity_overflow():
    gate = LogicGate(["a", "b", "c"], "o", ["111"])
    with pytest.raises(ValueError, match="bound fan-in"):
        truth_table_embedding(gate, 4)


def structural(net):
    """By node name, the unnormalized (rank, depth, fan-in, fan-out) columns."""
    graph = blif2graph(net, FeatureConfig(max_table_len=16, normalize_structural=False))
    return {
        name: tuple(int(v) for v in row[-4:])
        for name, row in zip(graph.node_names, graph.features)
    }


def test_structural_features_basics(and2):
    stats = structural(and2)
    assert stats["a"] == (0, 0, 0, 1)
    assert stats["b"] == (1, 0, 0, 1)
    assert stats["o"] == (2, 1, 2, 1)


def test_structural_depth_chain():
    src = (
        ".model chain\n.inputs a\n.outputs o\n"
        ".names a t1\n0 1\n.names t1 t2\n0 1\n.names t2 o\n0 1\n.end"
    )
    stats = structural(parse_blif(src))
    assert stats["o"][1] == 3


def test_structural_po_fanout_counts():
    src = ".model t\n.inputs a\n.outputs o o2\n.names a o\n1 1\n.names a o2\n0 1\n.end"
    stats = structural(parse_blif(src))
    assert stats["a"][3] == 2  # feeds both gates
    assert stats["o"][3] == 1  # consumed once as a primary output


@st.composite
def covers(draw):
    """A random cover of 1-8 inputs with its gates declared in any order, up
    to two constant gates, and outputs that may be inputs or constants."""
    r = random.Random(draw(st.integers(0, 10_000)))
    n = r.randint(1, 8)
    net = random_cover_netlist(r, n, r.randint(1, 12), max_arity=4, n_outputs=r.randint(1, 3))
    gates = list(net.gates)
    for k in range(r.randint(0, 2)):
        gates.append(LogicGate([], f"c{k}", r.choice([[], [""]])))
    r.shuffle(gates)
    listable = net.primary_inputs + [g.output for g in gates if not g.inputs]
    extra = r.sample(listable, min(len(listable), r.randint(0, 2)))
    net = Netlist("cover", net.primary_inputs, net.primary_outputs + extra, gates)
    net.validate()
    return net


@settings(max_examples=150, deadline=None)
@given(covers())
def test_structural_columns_match_the_per_signal_reference(net):
    assert structural(net) == structural_reference(net)


def test_blif2graph_sorts_topologically_once(monkeypatch, c17):
    calls = []
    topo_gates = Netlist.topo_gates

    def counted(self):
        calls.append(self)
        return topo_gates(self)

    monkeypatch.setattr(Netlist, "topo_gates", counted)
    blif2graph(c17, FeatureConfig())
    assert calls == [c17]


def test_blif2graph_and2(and2):
    graph = blif2graph(and2, FeatureConfig(max_table_len=4, normalize_structural=False))
    assert graph.num_nodes == 3
    assert graph.edges == [(0, 2), (1, 2)]
    assert graph.pi_positions == [0, 1]
    assert graph.features[2].tolist() == [0, 0, 0, 1, 2, 1, 2, 1]
    assert graph.features[0][:4].tolist() == [0, 0, 0, 0]


def test_blif2graph_pairs6(pairs6):
    graph = blif2graph(pairs6, FeatureConfig(max_table_len=8))
    assert graph.num_nodes == 6 + 4
    stats = structural(pairs6)
    assert all(stats[graph.node_names[i]][3] == 1 for i in graph.pi_positions)
    # one edge per gate input
    assert len(graph.edges) == sum(g.arity for g in pairs6.gates)


def test_blif2graph_pi_only():
    net = Netlist("wires", ["a", "b"], ["a"], [])
    net.validate()
    graph = blif2graph(net, FeatureConfig())
    assert graph.num_nodes == 2
    assert graph.edges == []


def test_graph_matches_dependency_relation(pairs6):
    graph = blif2graph(pairs6, FeatureConfig(max_table_len=8))
    index = {name: i for i, name in enumerate(graph.node_names)}
    expected = {
        (index[s], index[g.output]) for g in pairs6.gates for s in g.inputs
    }
    assert set(graph.edges) == expected


def test_feature_vector_width_uniform(pairs6, c17):
    config = FeatureConfig(max_table_len=16)
    for net in (pairs6, c17):
        graph = blif2graph(net, config)
        assert graph.features.shape == (graph.num_nodes, 16 + 4)


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(max_table_len=12)
    with pytest.raises(ValueError):
        FeatureConfig(max_table_len=2)
