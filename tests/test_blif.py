import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq.blif import (
    BlifError,
    LogicGate,
    Netlist,
    bound_fanin,
    evaluate,
    exhaustive_columns,
    negate_random_signals,
    parse_blif,
    simulate,
    write_blif,
)
from bddseq.gen import pair_products, random_cover_netlist, read_once_tree
from tests.conftest import C17_SRC, PAIRS6_SRC, mutated
from tests.reference import gate_eval, round_based_topo


def all_assignments(n):
    return itertools.product((0, 1), repeat=n)


def test_parse_minimal_and2():
    net = parse_blif(".model t\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end")
    assert net.name == "t"
    assert net.primary_inputs == ["a", "b"]
    assert len(net.gates) == 1
    assert net.gates[0].cover == ["11"]
    assert net.gates[0].polarity == 1


def test_parse_or2_dont_care_cubes():
    net = parse_blif(".model t\n.inputs a b\n.outputs c\n.names a b c\n1- 1\n-1 1\n.end")
    gate = net.gates[0]
    assert len(gate.cover) == 2
    for a, b in all_assignments(2):
        assert gate_eval(gate, [a, b]) == (a | b)


def test_parse_undefined_signal():
    with pytest.raises(BlifError, match="undefined signal"):
        parse_blif(".model t\n.inputs a\n.outputs o\n.names a ghost o\n11 1\n.end")


def test_parse_output_listed_twice_rejected():
    # synthesis would give the output two lines of one name
    src = ".model t\n.inputs a\n.outputs f f f\n.names a f\n1 1\n.end"
    with pytest.raises(BlifError, match="^primary output 'f' listed twice$"):
        parse_blif(src)


def test_parse_mixed_polarity_rejected():
    # the error names the line of the first row that disagrees with the first
    src = ".model t\n.inputs a b\n.outputs o\n.names a b o\n11 1\n01 1\n00 0\n10 0\n.end"
    with pytest.raises(BlifError, match=r"^line 7: mixed-polarity cover for gate 'o'$"):
        parse_blif(src)


@pytest.mark.parametrize(
    "cover, polarity, message",
    [
        (["11"], 2, "polarity of gate 'o' is not 0 or 1"),
        (["11"], -1, "polarity of gate 'o' is not 0 or 1"),
        ([], 0, "gate 'o' has an empty cover of polarity 0, which BLIF cannot write"),
    ],
)
def test_validate_rejects_polarity_blif_cannot_write(cover, polarity, message):
    net = Netlist("t", ["a", "b"], ["o"], [LogicGate(["a", "b"], "o", cover, polarity)])
    with pytest.raises(BlifError, match=f"^{message}$"):
        net.validate()


def test_parse_cycle_rejected():
    src = ".model t\n.inputs a\n.outputs x\n.names a y x\n11 1\n.names x y\n1 1\n.end"
    with pytest.raises(BlifError, match="cyclic"):
        parse_blif(src)


@pytest.mark.parametrize("seed", range(30))
def test_topo_gates_matches_round_based_order(seed):
    r = random.Random(seed + 500)
    net = random_cover_netlist(r, r.randint(1, 8), r.randint(1, 25), max_arity=4)
    gates = list(net.gates)
    r.shuffle(gates)  # declaration order no longer topological
    shuffled = Netlist(net.name, net.primary_inputs, net.primary_outputs, gates)
    assert shuffled.topo_gates() == round_based_topo(shuffled)


def test_parse_rejects_latches():
    with pytest.raises(BlifError, match="latch"):
        parse_blif(".model t\n.inputs a\n.outputs o\n.latch a o re clk 0\n.end")


def test_parse_line_continuation_and_comments():
    src = (
        ".model t # trailing comment\n"
        ".inputs a \\\n b\n"
        "# full comment line\n"
        ".outputs o\n"
        ".names a b o\n11 1\n.end"
    )
    net = parse_blif(src)
    assert net.primary_inputs == ["a", "b"]


def test_constant_gates():
    net = parse_blif(
        ".model t\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end"
    )
    assert simulate(net, (0,)) == (1, 0)
    assert simulate(net, (1,)) == (1, 0)


def test_simulate_and2(and2):
    assert simulate(and2, (1, 1)) == (1,)
    assert simulate(and2, (1, 0)) == (0,)


def test_simulate_pairs6(pairs6):
    assert simulate(pairs6, (1, 1, 0, 0, 0, 0)) == (1,)
    for a in all_assignments(6):
        expect = (a[0] & a[1]) | (a[2] & a[3]) | (a[4] & a[5])
        assert simulate(pairs6, a) == (expect,)


def test_simulate_out_of_order_gates():
    # declaration order is not topological; evaluation must sort
    src = ".model t\n.inputs a b\n.outputs o\n.names t1 b o\n11 1\n.names a t1\n0 1\n.end"
    net = parse_blif(src)
    for a, b in all_assignments(2):
        assert simulate(net, (a, b)) == ((1 - a) & b,)


def test_negate_zero_is_identity(pairs6):
    assert negate_random_signals(pairs6, 0, seed=9) == pairs6


def test_negate_and2_gives_nand(and2):
    negated = negate_random_signals(and2, 1, seed=0)
    assert (negated.gates[0].cover, negated.gates[0].polarity) == (["11"], 0)
    for a in all_assignments(2):
        assert simulate(negated, a)[0] == 1 - simulate(and2, a)[0]


def test_negate_deterministic(pairs6):
    assert negate_random_signals(pairs6, 2, seed=77) == negate_random_signals(
        pairs6, 2, seed=77
    )


def test_negate_twice_restores(pairs6):
    once = negate_random_signals(pairs6, 2, seed=5)
    twice = negate_random_signals(once, 2, seed=5)
    for a in all_assignments(6):
        assert simulate(twice, a) == simulate(pairs6, a)


def test_negate_too_many(and2):
    with pytest.raises(ValueError):
        negate_random_signals(and2, 2, seed=0)


def test_bound_fanin_noop(pairs6):
    assert bound_fanin(pairs6, 3) is pairs6


def test_bound_fanin_and5_tree():
    src = ".model t\n.inputs a b c d e\n.outputs o\n.names a b c d e o\n11111 1\n.end"
    net = parse_blif(src)
    small = bound_fanin(net, 2)
    assert all(g.arity <= 2 for g in small.gates)
    assert len(small.gates) == 4
    for a in all_assignments(5):
        assert simulate(small, a) == simulate(net, a)


def test_bound_fanin_sum_of_products_on_general_cover():
    src = ".model t\n.inputs a b c\n.outputs o\n.names a b c o\n110 1\n001 1\n-11 1\n.end"
    net = parse_blif(src)
    small = bound_fanin(net, 2)
    assert all(g.arity <= 2 for g in small.gates)
    for a in all_assignments(3):
        assert simulate(small, a) == simulate(net, a)


def same_function(a, b):
    n = len(a.primary_inputs)
    columns = exhaustive_columns(n)
    return evaluate(a, columns, 1 << n) == evaluate(b, columns, 1 << n)


# bound 2 keeps the plain seed ids, so those cases keep their names
@pytest.mark.parametrize(
    "seed, bound",
    [
        pytest.param(seed, bound, id=str(seed) if bound == 2 else f"{seed}-bound{bound}")
        for bound in (2, 3, 4, 5)
        for seed in range(25)
    ],
)
def test_bound_fanin_random_equivalence(seed, bound):
    r = random.Random(seed)
    net = random_cover_netlist(r, r.randint(3, 8), r.randint(2, 8), max_arity=8)
    small = bound_fanin(net, bound)
    assert all(g.arity <= bound for g in small.gates)
    assert same_function(small, net)


def wide_cover(n_inputs, n_cubes):
    """One gate over every input with n_cubes random cubes of one polarity."""
    rng = random.Random(0)
    pis = [f"x{i}" for i in range(n_inputs)]
    patterns = sorted(
        {"".join(rng.choice("01-") for _ in pis) for _ in range(n_cubes)}
    )
    polarity = rng.randint(0, 1)
    gate = LogicGate(pis, "o", patterns, polarity)
    return Netlist("wide", pis, ["o"], [gate])


@pytest.mark.parametrize("bound", [2, 4])
@pytest.mark.parametrize("n_inputs, n_cubes", [(6, 8), (6, 16), (10, 5), (12, 12), (16, 16)])
def test_bound_fanin_size_is_literals_plus_cubes(n_inputs, n_cubes, bound):
    # a sum of products needs at most one gate per care literal and per cube
    net = wide_cover(n_inputs, n_cubes)
    cover = net.gates[0].cover
    care = sum(ch != "-" for pattern in cover for ch in pattern)
    small = bound_fanin(net, bound)
    assert all(g.arity <= bound for g in small.gates)
    assert len(small.gates) <= care + len(cover)
    assert same_function(small, net)


@pytest.mark.parametrize(
    "rows, value",
    [
        ([], 0),
        (["11--- 1", "----- 1"], 1),
        (["----- 0", "0-1-- 0"], 0),
        (["1---- 1", "--11- 1", "0---- 1"], 1),
        (["-0--- 0", "-1--- 0", "1-1-1 0"], 0),
    ],
    ids=["empty", "all-dash", "all-dash-negative", "x-or-not-x", "x-or-not-x-negative"],
)
def test_bound_fanin_constant_covers_above_the_bound(rows, value):
    src = ".model t\n.inputs a b c d e\n.outputs o\n.names a b c d e o\n"
    net = parse_blif(src + "".join(r + "\n" for r in rows) + ".end")
    small = bound_fanin(net, 4)
    [gate] = small.gates
    assert gate.arity == 0 and gate.output == "o"
    assert simulate(small, [0] * 5) == (value,)
    assert same_function(small, net)


def test_write_blif_and2(and2):
    text = write_blif(and2)
    assert ".names a b o" in text
    assert "11 1" in text


def test_write_buffer_cover():
    net = Netlist("wires", ["a"], ["o"], [LogicGate(["a"], "o", ["1"])])
    net.validate()
    assert "1 1" in write_blif(net)


def test_roundtrip_fixture(pairs6, c17):
    assert parse_blif(write_blif(pairs6)) == pairs6
    assert parse_blif(write_blif(c17)) == c17


@st.composite
def made_netlists(draw):
    """A `gen` netlist, perhaps fan-in bounded, with some gate outputs negated."""
    r = random.Random(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["tree", "pairs", "cover"]))
    if kind == "tree":
        net = read_once_tree(r, r.randint(2, 8))
    elif kind == "pairs":
        net = pair_products(r, r.randint(1, 4))
    else:
        net = random_cover_netlist(r, r.randint(1, 6), r.randint(1, 8), max_arity=5)
    bound = draw(st.sampled_from([None, 2, 3]))
    if bound is not None:
        net = bound_fanin(net, bound)
    k = draw(st.integers(0, len(net.gates)))
    return negate_random_signals(net, k, seed=draw(st.integers(0, 100)))


@settings(max_examples=100, deadline=None)
@given(made_netlists())
def test_roundtrip_random(net):
    # every gate field compares, its polarity included
    assert parse_blif(write_blif(net)) == net


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([C17_SRC, PAIRS6_SRC]).flatmap(mutated))
def test_parse_blif_fuzz_fails_typed(text):
    # an edited fixture parses, or fails with BlifError and nothing else
    try:
        parse_blif(text)
    except BlifError:
        pass
