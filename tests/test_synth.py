import inspect
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq import synth
from bddseq.bdd import VarOrder, build_from_netlist, node_count
from bddseq.blif import parse_blif
from bddseq.cli import synthesize_circuit
from bddseq.corpus import RunConfig, names_to_order
from bddseq.gen import pair_products, random_cover_netlist, read_once_tree
from bddseq.synth import (
    RealFormatError,
    ReversibleCircuit,
    RevGate,
    quantum_cost,
    read_real,
    simulate_reversible,
    synthesize,
    transistor_cost,
    verify_synthesis,
    write_real,
)
from tests.conftest import C17_SRC, mutated
from tests.reference import (
    CLASH_SRC,
    apply_to_state,
    deep_chain,
    exhaustive_verify,
    gate_eval,
    is_bijection,
)


def build_and_synth(net, order=None):
    """(manager, roots, circuit) under `order`, the declaration order by default."""
    mgr, roots = build_from_netlist(net, order or VarOrder.identity(len(net.primary_inputs)))
    return mgr, roots, synthesize(mgr, roots, net)


def synth_for(net, order=None):
    return build_and_synth(net, order)[2]


def verdicts(circuit, net, mgr, roots):
    """(symbolic verdict in the diagram's manager, exhaustive oracle's verdict)."""
    return verify_synthesis(circuit, mgr, roots, net), exhaustive_verify(circuit, net)


def test_constant_one_output():
    net = parse_blif(".model t\n.inputs a\n.outputs one\n.names one\n1\n.end")
    mgr, roots, circuit = build_and_synth(net)
    assert circuit.lines == 2  # the input line plus one constant-0 ancilla
    assert [g.kind for g in circuit.gates] == ["t1"]
    assert verdicts(circuit, net, mgr, roots) == (True, True)


def test_identity_function_reuses_input_line():
    net = parse_blif(".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end")
    mgr, roots, circuit = build_and_synth(net)
    assert circuit.lines == 1
    assert circuit.gates == []
    assert circuit.output_names[0] == "o"
    assert verdicts(circuit, net, mgr, roots) == (True, True)


def test_simulate_reversible_empty_identity():
    circuit = ReversibleCircuit(
        line_names=["a", "b", "c"],
        constants=[None, None, None],
        output_names=[None, None, None],
        gates=[],
    )
    assert simulate_reversible(circuit, (1, 0, 1)) == [1, 0, 1]


def test_cnot_toggles_target():
    circuit = ReversibleCircuit(
        line_names=["a", "b"],
        constants=[None, None],
        output_names=[None, None],
        gates=[RevGate(((0, True),), 1)],
    )
    assert simulate_reversible(circuit, (1, 0)) == [1, 1]
    assert simulate_reversible(circuit, (0, 0)) == [0, 0]


def test_gate_validation():
    with pytest.raises(ValueError):
        RevGate(((0, True),), 0)
    with pytest.raises(ValueError):
        RevGate(((0, True), (1, True), (2, True)), 3)


def test_costs_basic():
    empty = ReversibleCircuit(["a"], [None], [None], [])
    assert quantum_cost(empty) == 0
    circuit = ReversibleCircuit(
        line_names=["a", "b", "c"],
        constants=[None, None, None],
        output_names=[None, None, None],
        gates=[RevGate(((0, True),), 2), RevGate(((0, True), (1, True)), 2)],
    )
    assert quantum_cost(circuit) == 1 + 5
    assert transistor_cost(circuit) == 8 + 16


def test_negative_control_surcharge():
    one_neg = ReversibleCircuit(
        ["a", "b", "c"], [None] * 3, [None] * 3,
        [RevGate(((0, False), (1, True)), 2)],
    )
    two_neg = ReversibleCircuit(
        ["a", "b", "c"], [None] * 3, [None] * 3,
        [RevGate(((0, False), (1, False)), 2)],
    )
    assert quantum_cost(one_neg) == 5
    assert quantum_cost(two_neg) == 6


def test_not_gate_has_zero_transistors():
    circuit = ReversibleCircuit(
        ["a"], [None], [None], [RevGate((), 0)]
    )
    assert transistor_cost(circuit) == 0


@pytest.mark.parametrize("seed", range(15))
def test_random_synthesis_verifies(seed):
    r = random.Random(seed + 900)
    net = random_cover_netlist(r, r.randint(2, 7), r.randint(2, 8))
    order_perm = list(range(len(net.primary_inputs)))
    r.shuffle(order_perm)
    mgr, roots, circuit = build_and_synth(net, VarOrder(tuple(order_perm)))
    assert verdicts(circuit, net, mgr, roots) == (True, True)
    if circuit.lines <= 12:
        assert is_bijection(circuit)


def test_large_circuit_collision_spot_check():
    # beyond 12 lines, reversibility is spot-checked by random collisions
    r = random.Random(7)
    net = random_cover_netlist(r, 8, 12, max_arity=3, n_outputs=3)
    circuit = synth_for(net)
    assert circuit.lines > 12
    states = {
        tuple(r.randint(0, 1) for _ in range(circuit.lines)) for _ in range(2000)
    }
    images = {tuple(apply_to_state(circuit, s)) for s in states}
    assert len(images) == len(states)


def test_shared_nodes_bound_ancillas(pairs6):
    mgr, roots = build_from_netlist(pairs6, VarOrder.identity(6))
    circuit = synthesize(mgr, roots, pairs6)
    internal = node_count(mgr, roots) - 2
    assert circuit.lines - len(pairs6.primary_inputs) <= internal + 1


def test_write_real_format(c17):
    circuit = synth_for(c17)
    text = write_real(circuit)
    assert text.startswith(".version 2.0\n")
    assert f".numvars {circuit.lines}" in text
    assert ".constants " in text and ".garbage " in text
    body = text.split(".begin\n")[1].split("\n.end")[0].splitlines()
    assert len(body) == len(circuit.gates)


def test_write_real_single_not():
    circuit = ReversibleCircuit(
        ["x"], [None], [None], [RevGate((), 0)]
    )
    assert "t1 x" in write_real(circuit)


def test_write_real_toffoli_line():
    circuit = ReversibleCircuit(
        ["a", "b", "c"], [None] * 3, [None] * 3,
        [RevGate(((0, True), (1, True)), 2)],
    )
    assert "t3 a b c" in write_real(circuit)


def test_write_real_negative_control_prefix():
    circuit = ReversibleCircuit(
        ["a", "b", "c"], [None] * 3, [None] * 3,
        [RevGate(((0, False), (1, True)), 2)],
    )
    assert "t3 -a b c" in write_real(circuit)


def test_real_roundtrip_c17(c17):
    circuit = synth_for(c17)
    back = read_real(write_real(circuit))
    assert back == circuit


def test_bdd_size_correlates_with_quantum_cost():
    # rank correlation with tie-averaged ranks, computed directly
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rng = random.Random(77)
    nodes, costs = [], []
    for seed in range(18):
        r = random.Random(seed + 50)
        net = random_cover_netlist(r, r.randint(3, 6), r.randint(3, 8))
        n = len(net.primary_inputs)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            mgr, roots = build_from_netlist(net, VarOrder(tuple(perm)))
            circuit = synthesize(mgr, roots, net)
            nodes.append(node_count(mgr, roots))
            costs.append(quantum_cost(circuit))
    ra, rb = ranks(nodes), ranks(costs)
    mean_a = sum(ra) / len(ra)
    mean_b = sum(rb) / len(rb)
    num = sum((x - mean_a) * (y - mean_b) for x, y in zip(ra, rb))
    den = (
        sum((x - mean_a) ** 2 for x in ra) * sum((y - mean_b) ** 2 for y in rb)
    ) ** 0.5
    assert num / den > 0.8


def test_pair_function_order_affects_cost(pairs6):
    good = build_and_synth(pairs6, VarOrder.identity(6))
    bad = build_and_synth(pairs6, VarOrder((0, 2, 4, 1, 3, 5)))
    assert quantum_cost(good[2]) < quantum_cost(bad[2])
    for mgr, roots, circuit in (good, bad):
        assert verdicts(circuit, pairs6, mgr, roots) == (True, True)


def reference_verify(circuit, net):
    """Per-assignment check, one gate and one cube at a time."""
    n = len(net.primary_inputs)
    po_line = {name: i for i, name in enumerate(circuit.output_names) if name}
    for i in range(1 << n):
        bits = [(i >> (n - 1 - j)) & 1 for j in range(n)]
        values = dict(zip(net.primary_inputs, bits))
        for g in net.topo_gates():
            values[g.output] = gate_eval(g, [values[s] for s in g.inputs])
        it = iter(bits)
        state = [next(it) if c is None else c for c in circuit.constants]
        for g in circuit.gates:
            if all(state[line] == pol for line, pol in g.controls):
                state[g.target] ^= 1
        if any(state[po_line[po]] != values[po] for po in net.primary_outputs):
            return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_gate_deletion_verdicts_match_reference(seed):
    r = random.Random(seed + 500)
    net = random_cover_netlist(r, r.randint(2, 6), r.randint(2, 8), n_outputs=r.randint(1, 3))
    mgr, roots, circuit = build_and_synth(net)
    assert verdicts(circuit, net, mgr, roots) == (True, True) and reference_verify(circuit, net)
    for k in range(len(circuit.gates)):
        mutant = replace(circuit, gates=circuit.gates[:k] + circuit.gates[k + 1 :])
        expected = reference_verify(mutant, net)
        assert verdicts(mutant, net, mgr, roots) == (expected, expected), k


@st.composite
def edited_circuits(draw):
    """(netlist, order, edit, pick): a random netlist of 1 to 16 inputs, an
    order, and no edit, a dropped gate or one control's polarity flipped, on
    the gate `pick` selects (`edit_circuit`)."""
    r = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["cover", "tree", "pairs"] if n >= 4 else ["cover"]))
    if kind == "cover":
        net = random_cover_netlist(r, n, r.randint(1, 2 * n + 2), n_outputs=r.randint(1, 3))
    elif kind == "tree":
        net = read_once_tree(r, n)
    else:
        net = pair_products(r, n // 2)
    order = VarOrder(tuple(draw(st.permutations(range(len(net.primary_inputs))))))
    edit = draw(st.sampled_from(["none", "drop", "flip"]))
    return net, order, edit, draw(st.integers(0, 10**6))


def edit_circuit(circuit, edit, pick):
    """The circuit with gate `pick` dropped, or the first control of the
    `pick`-th controlled gate flipped; unedited when there is no such gate."""
    gates = list(circuit.gates)
    controlled = [k for k, g in enumerate(gates) if g.controls]
    if edit == "drop" and gates:
        del gates[pick % len(gates)]
    elif edit == "flip" and controlled:
        k = controlled[pick % len(controlled)]
        (line, pol), *rest = gates[k].controls
        gates[k] = RevGate(((line, not pol), *rest), gates[k].target)
    return replace(circuit, gates=gates)


@settings(max_examples=80, deadline=None)
@given(edited_circuits())
def test_symbolic_verdict_agrees_with_exhaustive_oracle(case):
    net, order, edit, pick = case
    mgr, roots, circuit = build_and_synth(net, order)
    mutant = edit_circuit(circuit, edit, pick)
    symbolic, exhaustive = verdicts(mutant, net, mgr, roots)
    assert symbolic == exhaustive
    if mutant == circuit:
        assert symbolic


# Single-template mutations of `synthesize`: each edits one template of the
# synth.py docstring's table. Every one changes the function of some line.
# The literal-node mutation gives the node a fresh line but keeps the
# template's empty gate list; the changed low=1 template negates its CNOT's
# control, so the line carries x instead of not-x.
LOW_ONE = "            gates.append(RevGate(((x, True),), target))\n        elif low != FALSE:"
LOW_G = "            gates.append(RevGate(((x, False), (node_line[low], True)), target))\n"
HIGH_ONE = "            gates.append(RevGate(((x, True),), target))\n        elif high != FALSE:"
HIGH_G = "            gates.append(RevGate(((x, True), (node_line[high], True)), target))\n"
EXTRA_NOT = "            gates.append(RevGate((), target))\n"
TEMPLATE_MUTATIONS = {
    "extra NOT after low=1": (LOW_ONE, LOW_ONE.replace("\n", "\n" + EXTRA_NOT, 1)),
    "extra NOT after low=g": (LOW_G, LOW_G + EXTRA_NOT),
    "extra NOT after high=1": (HIGH_ONE, HIGH_ONE.replace("\n", "\n" + EXTRA_NOT, 1)),
    "extra NOT after high=g": (HIGH_G, HIGH_G + EXTRA_NOT),
    "a line for literal nodes": (
        "node_line[ref] = x  # the function is the variable itself",
        'node_line[ref] = new_line(f"w{len(node_line)}")',
    ),
    "changed low=1 template": (LOW_ONE, LOW_ONE.replace("(x, True)", "(x, False)")),
}


def mutant_synthesize(old, new):
    """`synthesize` compiled from its source with one edit."""
    source = inspect.getsource(synth.synthesize)
    assert source.count(old) == 1, old
    namespace = dict(vars(synth))
    exec(source.replace(old, new), namespace)
    return namespace["synthesize"]


# Under the order a, b, c every template occurs: f = not(a and b) takes low=1
# at a and at not-b, and high=g at a; g = a ? b : c takes low=g and high=g
# with two literal nodes; h = a or c takes high=1.
TEMPLATES_SRC = """\
.model templates
.inputs a b c
.outputs f g h
.names a b f
11 0
.names a b c g
11- 1
0-1 1
.names a c h
1- 1
-1 1
.end
"""


@pytest.mark.parametrize("mutation", list(TEMPLATE_MUTATIONS))
def test_template_mutations_fail_symbolic_check(mutation):
    net = parse_blif(TEMPLATES_SRC)
    mgr, roots = build_from_netlist(net, VarOrder.identity(3))
    circuit = mutant_synthesize(*TEMPLATE_MUTATIONS[mutation])(mgr, roots, net)
    assert circuit != synthesize(mgr, roots, net)
    assert verdicts(circuit, net, mgr, roots) == (False, False)


def test_read_real_undeclared_line_is_typed():
    text = write_real(synth_for(parse_blif(
        ".model t\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end"
    )))
    lines = text.splitlines()
    body = lines.index(".begin") + 1
    lines[body] = lines[body].rsplit(" ", 1)[0] + " zz"
    with pytest.raises(RealFormatError, match="undeclared line 'zz'") as info:
        read_real("\n".join(lines))
    assert info.value.line == body + 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace(".numvars 3", ".numvars x"),
        lambda t: t.replace(".garbage ", ".garbage 1"),
        lambda t: t.replace(".constants --0", ".constants --2"),
        lambda t: t.replace("t3 ", "tq "),
        lambda t: t.replace(".end", "t0\n.end"),
        lambda t: t.replace(".begin", ".nonsense"),
        lambda t: t.replace(".begin", ".variables a b c\n.begin"),
    ],
)
def test_read_real_malformed_is_typed(edit):
    text = write_real(synth_for(parse_blif(
        ".model t\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end"
    )))
    assert text != edit(text)
    with pytest.raises(RealFormatError):
        read_real(edit(text))


def test_read_real_header_given_twice_is_typed():
    # the second .variables passes every length check; the gate on line 8
    # names the line it drops
    text = (
        ".numvars 1\n.variables a b\n.inputs a\n.outputs a\n.constants -\n"
        ".garbage 0\n.begin\nt1 b\n.end\n.variables a\n"
    )
    with pytest.raises(RealFormatError, match=r"\.variables given twice, first on line 2") as info:
        read_real(text)
    assert info.value.line == 10


ABC_REAL = ".numvars 3\n.variables a b c\n.inputs a b c\n.outputs a b c\n.constants ---\n.garbage 000\n"


@pytest.mark.parametrize("gate", ["f2 a b", "p3 a b c", "v a b"], ids=["fredkin", "peres", "v"])
def test_read_real_refuses_a_gate_that_is_not_toffoli(gate):
    # a Fredkin gate swaps its targets and a Peres gate is a Toffoli gate then
    # a CNOT, neither of which a Toffoli gate of the same lines computes
    assert read_real(ABC_REAL + ".begin\nt3 a b c\n.end\n").gates
    with pytest.raises(RealFormatError, match=f"^line 8: not a Toffoli gate line: '{gate}'$"):
        read_real(ABC_REAL + f".begin\n{gate}\n.end\n")


def test_read_real_refuses_a_line_named_twice():
    # every gate on `a` would act on the second line of that name
    text = ABC_REAL.replace(".variables a b c", ".variables a b a")
    with pytest.raises(RealFormatError, match=r"^line 2: \.variables names line 'a' twice$"):
        read_real(text + ".begin\nt2 a b\n.end\n")


@pytest.mark.parametrize(
    "src, lines",
    [
        (CLASH_SRC, ["a", "b", "o_g", "w2", "w3", "w1", "o_g_1"]),
        (
            CLASH_SRC.replace("o_g w2 w3", "o_g o_h w1 w1_1")
            .replace(".outputs f g", ".outputs f g h")
            .replace(".end", ".names h\n1\n.end"),
            ["a", "b", "o_g", "o_h", "w1", "w1_1", "w1_2", "o_g_1", "o_h_1"],
        ),
    ],
    ids=["copy", "ancilla-copy-constant"],
)
def test_synthesized_line_names_are_distinct(src, lines):
    # an ancilla, an output copy or a constant output whose name a line has
    # takes the first free variant of it, so `.real` names each line once
    net = parse_blif(src)
    circuit = synthesize_circuit(net, VarOrder.identity(len(net.primary_inputs)), RunConfig())[0]
    assert circuit.line_names == lines
    assert read_real(write_real(circuit)) == circuit
    assert exhaustive_verify(circuit, net)


def test_a_deep_chain_synthesizes_and_verifies():
    # apply_not, postorder and the symbolic check recurse past the
    # interpreter's default limit of 1 000 frames
    src, names = deep_chain(1500)
    net = parse_blif(src)
    circuit, nodes, _ = synthesize_circuit(net, names_to_order(net, names), RunConfig())
    assert sys.getrecursionlimit() >= 3 * 1500 + 1000
    assert nodes == 1502
    assert circuit.lines == 3000 and len(set(circuit.line_names)) == 3000


C17_REAL = write_real(synth_for(parse_blif(C17_SRC)))


@settings(max_examples=200, deadline=None)
@given(mutated(C17_REAL))
def test_read_real_fuzz_fails_typed(text):
    # an edited C17 circuit reads, or fails with RealFormatError and nothing else
    try:
        read_real(text)
    except RealFormatError:
        pass
