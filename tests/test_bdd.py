import itertools
import random

import pytest

from bddseq.bdd import (
    TRUE,
    NodeCapExceeded,
    VarOrder,
    brute_force_optimal_order,
    build_from_netlist,
    ga_reorder,
    generate_label,
    generate_label_report,
    node_count,
    output_truth_tables,
    shannon_build,
    sift_reorder,
    swap_adjacent_levels,
    transfer,
)
from bddseq.blif import parse_blif, simulate
from bddseq.gen import random_cover_netlist

NATURAL6 = VarOrder.identity(6)
# the interleaved order that separates every product's two inputs
SCRAMBLED6 = VarOrder((0, 2, 4, 1, 3, 5))


def eval_all(mgr, root, netlist):
    n = len(netlist.primary_inputs)
    for bits in itertools.product((0, 1), repeat=n):
        assignment = dict(enumerate(bits))
        assert mgr.eval(root, assignment) == simulate(netlist, bits)[0]


def test_pair_function_counts(pairs6):
    mgr, roots = build_from_netlist(pairs6, NATURAL6)
    assert node_count(mgr, roots) == 8
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    assert node_count(mgr, roots) == 16


def test_constant_output_count():
    net = parse_blif(".model t\n.inputs a\n.outputs one\n.names one\n1\n.end")
    mgr, roots = build_from_netlist(net, VarOrder.identity(1))
    assert roots == [TRUE]
    assert node_count(mgr, roots) == 1


def test_varorder_validation():
    with pytest.raises(ValueError):
        VarOrder((0, 0, 1))
    assert VarOrder((1, 0)).inverse() == VarOrder((1, 0))


def test_build_matches_simulation(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    eval_all(mgr, roots[0], pairs6)


def test_swap_involution(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    before = node_count(mgr, roots)
    swap_adjacent_levels(mgr, 2)
    swap_adjacent_levels(mgr, 2)
    assert node_count(mgr, roots) == before
    assert mgr.current_order() == SCRAMBLED6


def test_swap_preserves_function(pairs6):
    # moving x1 above x3 reunites the x0*x1 product, shrinking the diagram
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    before = node_count(mgr, roots)
    swap_adjacent_levels(mgr, 2)
    mgr.check()
    assert node_count(mgr, roots) != before
    eval_all(mgr, roots[0], pairs6)


def test_swap_independent_variables_keeps_count():
    # f depends only on x0; swapping x1/x2 cannot change anything
    net = parse_blif(".model t\n.inputs x0 x1 x2\n.outputs o\n.names x0 o\n1 1\n.end")
    mgr, roots = build_from_netlist(net, VarOrder.identity(3))
    before = node_count(mgr, roots)
    swap_adjacent_levels(mgr, 1)
    assert node_count(mgr, roots) == before


@pytest.mark.parametrize("seed", range(12))
def test_random_swaps_match_oracle(seed):
    r = random.Random(seed)
    net = random_cover_netlist(r, r.randint(2, 7), r.randint(2, 8))
    n = len(net.primary_inputs)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    for _ in range(20):
        if n < 2:
            break
        mgr.swap_adjacent_levels(r.randrange(n - 1))
        mgr.check()
    oracle, oracle_roots = shannon_build(net, mgr.current_order())
    assert mgr.signature(roots) == oracle.signature(oracle_roots)


def test_sift_keeps_optimum(pairs6):
    mgr, roots = build_from_netlist(pairs6, NATURAL6)
    sift_reorder(mgr, roots)
    assert node_count(mgr, roots) == 8


def test_sift_reaches_optimum_from_scrambled(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order = sift_reorder(mgr, roots)
    assert node_count(mgr, roots) == 8
    assert mgr.current_order() == order


@pytest.mark.parametrize("seed", range(10))
def test_sift_monotone(seed):
    r = random.Random(seed + 100)
    net = random_cover_netlist(r, r.randint(3, 8), r.randint(2, 9))
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    before = node_count(mgr, roots)
    sift_reorder(mgr, roots)
    assert node_count(mgr, roots) <= before


def test_ga_zero_generations_returns_best_seeded(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order = ga_reorder(mgr, roots, population=12, generations=0, seed=3)
    # reproduce the seeded initial population independently
    rng = random.Random(3)
    pop = [tuple(mgr.order)]
    while len(pop) < 12:
        perm = list(range(6))
        rng.shuffle(perm)
        pop.append(tuple(perm))
    def count_of(perm):
        dst, nr = transfer(mgr, roots, VarOrder(perm))
        return node_count(dst, nr)
    best = min(pop, key=lambda p: (count_of(p), p))
    assert order.permutation == best


def test_ga_finds_optimum(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order = ga_reorder(mgr, roots, population=20, generations=30, seed=7)
    dst, nr = transfer(mgr, roots, order)
    assert node_count(dst, nr) == 8


def test_ga_deterministic(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    a = ga_reorder(mgr, roots, population=10, generations=8, seed=21)
    mgr2, roots2 = build_from_netlist(pairs6, SCRAMBLED6)
    b = ga_reorder(mgr2, roots2, population=10, generations=8, seed=21)
    assert a == b


def test_brute_force_pair_function(pairs6):
    order, count = brute_force_optimal_order(pairs6)
    assert count == 8


def test_brute_force_single_variable():
    net = parse_blif(".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end")
    order, count = brute_force_optimal_order(net)
    assert count == 3


def test_brute_force_symmetric_majority():
    net = parse_blif(
        ".model maj\n.inputs a b c\n.outputs o\n.names a b c o\n11- 1\n1-1 1\n-11 1\n.end"
    )
    n, tables = output_truth_tables(net)
    from bddseq.bdd import shannon_count

    counts = {
        shannon_count(n, tables, perm) for perm in itertools.permutations(range(3))
    }
    assert len(counts) == 1


def test_brute_force_too_many_inputs():
    net = random_cover_netlist(random.Random(0), 10, 4)
    with pytest.raises(ValueError, match="too many inputs"):
        brute_force_optimal_order(net)


@pytest.mark.parametrize("seed", range(15))
def test_apply_build_structurally_equals_shannon(seed):
    r = random.Random(seed + 400)
    net = random_cover_netlist(r, r.randint(2, 8), r.randint(2, 10))
    order_perm = list(range(len(net.primary_inputs)))
    r.shuffle(order_perm)
    order = VarOrder(tuple(order_perm))
    mgr, roots = build_from_netlist(net, order)
    oracle, oracle_roots = shannon_build(net, order)
    assert mgr.signature(roots) == oracle.signature(oracle_roots)


def test_generate_label_optimal(pairs6):
    order = generate_label(pairs6, seed=0)
    mgr, roots = build_from_netlist(pairs6, order)
    _, optimum = brute_force_optimal_order(pairs6)
    assert node_count(mgr, roots) == optimum == 8


def test_generate_label_and2_any_order(and2):
    report = generate_label_report(and2, seed=0)
    assert report.counts["natural"] == report.counts["sifting"] == 4
    assert report.winner == "natural"  # tie goes to the first heuristic


def test_generate_label_ga_beats_sifting():
    # frozen 7-input fixture on which the genetic search finds a smaller
    # diagram than sifting does (verified against both heuristic counts)
    r = random.Random(112)
    net = random_cover_netlist(r, 7, r.randint(5, 10), max_arity=3, n_outputs=2)
    report = generate_label_report(net, seed=0)
    assert report.counts["ga"] < report.counts["sifting"]
    assert report.winner == "ga"
    mgr, roots = build_from_netlist(net, report.order)
    assert node_count(mgr, roots) == report.counts["ga"]


def test_node_cap_signals_blowup(pairs6):
    with pytest.raises(NodeCapExceeded):
        build_from_netlist(pairs6, SCRAMBLED6, node_cap=4)


def test_garbage_collection_keeps_roots(pairs6):
    mgr, roots = build_from_netlist(pairs6, NATURAL6)
    live_before = node_count(mgr, roots)
    mgr.collect_garbage()
    assert node_count(mgr, roots) == live_before
    mgr.check()
    eval_all(mgr, roots[0], pairs6)


@pytest.mark.parametrize("seed", range(20))
def test_truth_tables_match_per_assignment_eval(seed):
    r = random.Random(seed + 300)
    net = random_cover_netlist(r, r.randint(1, 7), r.randint(1, 10), n_outputs=r.randint(1, 3))
    n = len(net.primary_inputs)
    expected = [0] * len(net.primary_outputs)
    for i in range(1 << n):
        values = {s: (i >> (n - 1 - j)) & 1 for j, s in enumerate(net.primary_inputs)}
        for g in net.topo_gates():
            values[g.output] = g.eval([values[s] for s in g.inputs])
        for k, po in enumerate(net.primary_outputs):
            expected[k] |= values[po] << i
    assert output_truth_tables(net) == (n, expected)
