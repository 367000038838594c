import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq.bdd import (
    EXACT_MAX_INPUTS,
    FALSE,
    TRUE,
    NodeCapExceeded,
    VarOrder,
    brute_force_optimal_order,
    build_from_netlist,
    ga_reorder,
    generate_label_report,
    node_count,
    output_truth_tables,
    shannon_build,
    shannon_count,
    sift_reorder,
    terminal_count,
    transfer,
)
from bddseq.blif import Cube, LogicGate, Netlist, parse_blif, simulate
from bddseq.gen import desk_corpus, pair_products, random_cover_netlist, read_once_tree
from bddseq.synth import synthesize, verify_synthesis

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
    mgr.swap_adjacent_levels(2)
    mgr.swap_adjacent_levels(2)
    assert node_count(mgr, roots) == before
    assert mgr.current_order() == SCRAMBLED6


def test_swap_preserves_function(pairs6):
    # moving x1 above x3 reunites the x0*x1 product, shrinking the diagram
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    before = node_count(mgr, roots)
    mgr.swap_adjacent_levels(2)
    mgr.check()
    assert node_count(mgr, roots) != before
    eval_all(mgr, roots[0], pairs6)


def test_swap_independent_variables_keeps_count():
    # f depends only on x0; swapping x1/x2 cannot change anything
    net = parse_blif(".model t\n.inputs x0 x1 x2\n.outputs o\n.names x0 o\n1 1\n.end")
    mgr, roots = build_from_netlist(net, VarOrder.identity(3))
    before = node_count(mgr, roots)
    mgr.swap_adjacent_levels(1)
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


def walk_sift(mgr, roots):
    """Reference sifting that walks the diagrams for a count after every swap."""
    n = mgr.n
    for var in range(n):
        counts = {mgr.var2level[var]: node_count(mgr, roots)}
        overflow = False
        while mgr.var2level[var] < n - 1:
            mgr.swap_adjacent_levels(mgr.var2level[var])
            counts[mgr.var2level[var]] = node_count(mgr, roots)
            if len(mgr.nodes) > mgr.node_cap:
                overflow = True
                break
        if not overflow:
            while mgr.var2level[var] > 0:
                mgr.swap_adjacent_levels(mgr.var2level[var] - 1)
                c = node_count(mgr, roots)
                pos = mgr.var2level[var]
                if pos not in counts or c < counts[pos]:
                    counts[pos] = c
                if len(mgr.nodes) > mgr.node_cap:
                    break
        best_pos = min(counts, key=lambda p: (counts[p], p))
        mgr.move_var_to(var, best_pos)
    return mgr.current_order()


def sift_case(case):
    """Random netlists with 1-4 outputs sharing nodes, and small instances of
    the wide-sifting families: read-once trees, pair products, 4-output covers."""
    family, seed = case.split("-")
    r = random.Random(int(seed) + 700)
    if family == "tree":
        return read_once_tree(r, 12)
    if family == "pairs":
        return pair_products(r, 6)
    if family == "cover4":
        return random_cover_netlist(r, 12, 24, n_outputs=4)
    n_outputs = 1 + int(seed) % 4
    return random_cover_netlist(r, r.randint(2, 10), r.randint(4, 14), n_outputs=n_outputs)


SIFT_CASES = [f"random-{s}" for s in range(40)] + [
    f"{family}-{s}" for family in ("tree", "pairs", "cover4") for s in range(2)
]


@pytest.mark.parametrize("case", SIFT_CASES)
def test_live_count_sift_matches_walking_sift(case):
    net = sift_case(case)
    n = len(net.primary_inputs)
    ref, ref_roots = build_from_netlist(net, VarOrder.identity(n))
    expected = walk_sift(ref, ref_roots)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    swap, swaps = mgr.swap_adjacent_levels, []

    def checked_swap(level):
        # the store holds exactly the internal nodes under the roots, so its
        # size plus the terminals reached is the node count
        swap(level)
        swaps.append(level)
        assert set(mgr.nodes) == mgr.reachable(roots) - {FALSE, TRUE}

    mgr.swap_adjacent_levels = checked_swap
    assert sift_reorder(mgr, roots) == expected
    assert swaps
    assert node_count(mgr, roots) == node_count(ref, ref_roots)
    mgr.check()


@pytest.mark.parametrize("breach", ["extra_function", "unprotected_root"])
def test_sift_rejects_store_beyond_roots(pairs6, breach):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    if breach == "extra_function":
        mgr.protect(mgr.apply("and", mgr.var(0), mgr.var(5)))
    else:
        mgr.unprotect(roots[0])
    held, signature = list(roots), mgr.signature(roots)
    with pytest.raises(ValueError):
        sift_reorder(mgr, roots)
    assert roots == held
    assert mgr.signature(roots) == signature
    assert mgr.current_order() == SCRAMBLED6
    mgr.check()


@pytest.mark.parametrize("delta", [1, -1])
def test_check_audits_refcounts(pairs6, delta):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    mgr.check()
    mgr.nodes[mgr.low(roots[0])][3] += delta
    with pytest.raises(AssertionError, match="refcount"):
        mgr.check()


@st.composite
def netlists(draw):
    """A random netlist of at most 8 inputs and 1-4 outputs sharing nodes."""
    n = draw(st.integers(1, 8))
    inputs = [f"x{i}" for i in range(n)]
    signals, gates = list(inputs), []
    for g in range(draw(st.integers(1, 10))):
        ins = draw(st.lists(st.sampled_from(signals), min_size=1, max_size=3, unique=True))
        pattern = st.text("01-", min_size=len(ins), max_size=len(ins))
        patterns = draw(st.lists(pattern, min_size=1, max_size=3, unique=True))
        polarity = draw(st.integers(0, 1))
        gates.append(LogicGate(ins, f"g{g}", [Cube(p, polarity) for p in sorted(patterns)]))
        signals.append(f"g{g}")
    outputs = draw(
        st.lists(st.sampled_from([g.output for g in gates]), min_size=1, max_size=4, unique=True)
    )
    net = Netlist(name="fuzz", primary_inputs=inputs, primary_outputs=outputs, gates=gates)
    net.validate()
    return net


@st.composite
def netlists_with_swaps(draw):
    """A random netlist and levels to swap before sifting."""
    net = draw(netlists())
    n = len(net.primary_inputs)
    swaps = draw(st.lists(st.integers(0, n - 2), max_size=12)) if n > 1 else []
    return net, swaps


@settings(max_examples=100, deadline=None)
@given(netlists_with_swaps())
def test_swaps_then_sift_keep_invariants(case):
    net, swaps = case
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    for level in swaps:
        mgr.swap_adjacent_levels(level)
    mgr.check()
    sift_reorder(mgr, roots)
    mgr.check()
    oracle, oracle_roots = shannon_build(net, mgr.current_order())
    assert mgr.signature(roots) == oracle.signature(oracle_roots)
    assert verify_synthesis(synthesize(mgr, roots, net), net)


def count_swaps(mgr):
    """Count the manager's adjacent swaps; returns a one-item list."""
    swap, swaps = mgr.swap_adjacent_levels, [0]

    def counted(level):
        swaps[0] += 1
        return swap(level)

    mgr.swap_adjacent_levels = counted
    return swaps


def sift_against_walk(net, swaps=()):
    """Sift one diagram and walk-sift another from the same start; return
    their orders, signatures and swap counts."""
    start = VarOrder.identity(len(net.primary_inputs))
    out = []
    for sift in (sift_reorder, walk_sift):
        mgr, roots = build_from_netlist(net, start)
        for level in swaps:
            mgr.swap_adjacent_levels(level)
        counter = count_swaps(mgr)
        order = sift(mgr, roots)
        out.append((order, mgr.signature(roots), counter[0]))
    return out


@settings(max_examples=100, deadline=None)
@given(netlists_with_swaps())
def test_bounded_sift_matches_walk_sift(case):
    # the lower bound only skips positions that cannot win
    (order, signature, swaps), (ref_order, ref_signature, ref_swaps) = sift_against_walk(*case)
    assert order == ref_order
    assert signature == ref_signature
    assert swaps <= ref_swaps


@pytest.mark.parametrize(
    "family, share",
    # over 60 seeded 20-input trees the share runs from 0.46 to 0.78 (this
    # one 0.64); pair products sit near 0.35
    [("tree", 0.7), ("pairs", 0.4)],
)
def test_bounded_sift_prunes_swaps(family, share):
    r = random.Random(11)
    net = read_once_tree(r, 20) if family == "tree" else pair_products(r, 10)
    (order, signature, swaps), (ref_order, ref_signature, ref_swaps) = sift_against_walk(net)
    assert (order, signature) == (ref_order, ref_signature)
    assert swaps <= share * ref_swaps


def test_sift_node_cap_hit_mid_pass():
    # a cap just above the collected store, which sifting passes while it
    # explores (from 42 stored nodes it visits orders of up to 54)
    net = sift_case("pairs-1")
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    mgr.collect_garbage()
    before = node_count(mgr, roots)
    mgr.node_cap = len(mgr.nodes) + 1
    swap, largest = mgr.swap_adjacent_levels, [0]

    def watched(level):
        swap(level)
        largest[0] = max(largest[0], len(mgr.nodes))

    mgr.swap_adjacent_levels = watched
    order = sift_reorder(mgr, roots)
    assert largest[0] > mgr.node_cap  # the cap stopped some variable's pass
    assert node_count(mgr, roots) <= before
    assert mgr.current_order() == order
    mgr.check()
    oracle, oracle_roots = shannon_build(net, order)
    assert mgr.signature(roots) == oracle.signature(oracle_roots)


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
        dst, nr = build_from_netlist(pairs6, VarOrder(perm))
        return node_count(dst, nr)
    best = min(pop, key=lambda p: (count_of(p), p))
    assert order.permutation == best


def test_ga_finds_optimum(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order = ga_reorder(mgr, roots, population=20, generations=30, seed=7)
    dst, nr = build_from_netlist(pairs6, order)
    assert node_count(dst, nr) == 8


def test_ga_deterministic(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    a = ga_reorder(mgr, roots, population=10, generations=8, seed=21)
    mgr2, roots2 = build_from_netlist(pairs6, SCRAMBLED6)
    b = ga_reorder(mgr2, roots2, population=10, generations=8, seed=21)
    assert a == b


@pytest.mark.parametrize("seed", range(10))
def test_in_place_moves_match_transfer(seed):
    # GA fitness moves one collected copy from order to order by adjacent
    # swaps and reads each count from the store size
    r = random.Random(seed + 600)
    net = random_cover_netlist(r, r.randint(3, 8), r.randint(3, 10), n_outputs=3)
    n = len(net.primary_inputs)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    work, work_roots = transfer(mgr, roots)
    for _ in range(50):
        perm = list(range(n))
        r.shuffle(perm)
        assert work.shuffle_to(perm)
        assert work.order == perm
        dst, dst_roots = build_from_netlist(net, VarOrder(tuple(perm)))
        assert work.signature(work_roots) == dst.signature(dst_roots)
        assert len(work.nodes) + terminal_count(work_roots) == node_count(dst, dst_roots)
    work.check()


@pytest.mark.parametrize("seed", range(8))
def test_transfer_copies_live_nodes(seed):
    r = random.Random(seed + 900)
    net = random_cover_netlist(r, r.randint(2, 8), r.randint(2, 10), n_outputs=3)
    n = len(net.primary_inputs)
    perm = list(range(n))
    r.shuffle(perm)
    mgr, roots = build_from_netlist(net, VarOrder(tuple(perm)))
    store = {nid: list(rec) for nid, rec in mgr.nodes.items()}
    protected, signature = list(mgr.protected), mgr.signature(roots)
    dst, dst_roots = transfer(mgr, roots)
    assert dst_roots == roots
    assert dst.order == perm
    assert dst.signature(dst_roots) == signature
    assert set(dst.nodes) == mgr.reachable(roots) - {FALSE, TRUE}
    dst.check()
    # the caller's order, diagrams and store are untouched
    assert mgr.order == perm
    assert mgr.signature(roots) == signature
    assert mgr.nodes == store
    assert mgr.protected == protected
    # nodes the copy makes later get fresh ids
    for level in range(n - 1):
        dst.swap_adjacent_levels(level)
        dst.check()
    ref, ref_roots = build_from_netlist(net, dst.current_order())
    assert dst.signature(dst_roots) == ref.signature(ref_roots)
    assert len(dst.nodes) + terminal_count(dst_roots) == node_count(ref, ref_roots)


def test_transfer_respects_node_cap(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    live = len(mgr.reachable(roots) - {FALSE, TRUE})
    assert len(mgr.nodes) > live  # the build left garbage the copy drops
    mgr.node_cap = live - 1
    with pytest.raises(NodeCapExceeded):
        transfer(mgr, roots)
    mgr.node_cap = live
    dst, _ = transfer(mgr, roots)
    assert len(dst.nodes) == live
    assert dst.node_cap == live


@settings(max_examples=100, deadline=None)
@given(netlists_with_swaps())
def test_swaps_keep_collected_store_live(case):
    # a swap frees every node it orphans, so a collected store stays
    # exactly the live nodes after each swap
    net, swaps = case
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    mgr.collect_garbage()
    terminals = terminal_count(roots)
    for level in swaps:
        mgr.swap_adjacent_levels(level)
        assert len(mgr.nodes) + terminals == node_count(mgr, roots)
        mgr.check()


def test_ga_leaves_caller_manager_untouched(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order_before, sig_before = list(mgr.order), mgr.signature(roots)
    ga_reorder(mgr, roots, population=10, generations=8, seed=5)
    assert mgr.order == order_before
    assert mgr.signature(roots) == sig_before


def five_products():
    """Five two-input products: 12 nodes under the declaration order, up to
    64 under others, such as the interleaved order."""
    src = ".model p\n.inputs " + " ".join(f"x{i}" for i in range(10))
    src += "\n.outputs f\n"
    src += "".join(f".names x{2 * k} x{2 * k + 1} p{k}\n11 1\n" for k in range(5))
    src += ".names p0 p1 p2 p3 p4 f\n"
    src += "".join("-" * k + "1" + "-" * (4 - k) + " 1\n" for k in range(5))
    return parse_blif(src + ".end")


INTERLEAVED10 = (0, 2, 4, 6, 8, 1, 3, 5, 7, 9)


@pytest.mark.parametrize("cap", [3, 41])
def test_ga_tiny_node_cap_returns_permutation(cap):
    # at cap 41 the working copy fits but many orders do not, at cap 3 not
    # even the copy fits
    net = five_products()
    mgr, roots = build_from_netlist(net, VarOrder.identity(10))
    mgr.node_cap = cap
    order = ga_reorder(mgr, roots, population=8, generations=4, seed=1)
    assert sorted(order.permutation) == list(range(10))


def test_shuffle_to_stops_on_the_swap_that_passes_the_cap():
    mgr, roots = build_from_netlist(five_products(), VarOrder.identity(10))
    mgr.collect_garbage()
    mgr.node_cap = 40  # the identity order holds 10 nodes, the interleaved 62
    assert not mgr.shuffle_to(INTERLEAVED10)
    assert len(mgr.nodes) > 40
    assert mgr.order != list(INTERLEAVED10)
    mgr.check()
    # the store stays exact at the intermediate order, and moves on from it
    assert len(mgr.nodes) + terminal_count(roots) == node_count(mgr, roots)
    assert mgr.shuffle_to(range(10))
    assert len(mgr.nodes) == 10
    with pytest.raises(ValueError):
        mgr.shuffle_to(range(9))


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
    counts = {shannon_count(net, perm) for perm in itertools.permutations(range(3))}
    assert len(counts) == 1


def test_brute_force_too_many_inputs():
    net = random_cover_netlist(random.Random(0), EXACT_MAX_INPUTS + 1, 4)
    with pytest.raises(ValueError, match="too many inputs"):
        brute_force_optimal_order(net)


def enumerate_optimal_order(netlist):
    """Reference: the first of all n! orders with the fewest Shannon-built nodes."""
    n = len(netlist.primary_inputs)
    best_perm, best_count = None, None
    for perm in itertools.permutations(range(n)):
        c = shannon_count(netlist, perm)
        if best_count is None or c < best_count:
            best_perm, best_count = perm, c
    return VarOrder(best_perm), best_count


EXACT_CASES = {
    "single_variable": ".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end",
    "constant_output": (
        ".model t\n.inputs a b c\n.outputs one o\n.names one\n1\n"
        ".names a c o\n11 1\n.end"
    ),
    "symmetric_majority": (
        ".model maj\n.inputs a b c d\n.outputs o\n.names a b c o\n"
        "11- 1\n1-1 1\n-11 1\n.end"
    ),
    "shared_outputs": (
        ".model t\n.inputs a b c d\n.outputs f g\n.names a d f\n11 1\n"
        ".names a d c g\n11- 1\n--1 1\n.end"
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_search_matches_enumeration_on_edge_cases(case):
    net = parse_blif(EXACT_CASES[case])
    assert brute_force_optimal_order(net) == enumerate_optimal_order(net)


@pytest.mark.parametrize("seed", range(48))
def test_exact_search_matches_enumeration(seed):
    r = random.Random(seed + 900)
    net = random_cover_netlist(
        r, r.randint(1, 6), r.randint(1, 9), n_outputs=1 + seed % 4
    )
    assert brute_force_optimal_order(net) == enumerate_optimal_order(net)


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
    order = generate_label_report(pairs6, seed=0).order
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


def three_build_label_report(netlist, seed=0, node_cap=2_000_000, **ga):
    """Reference: each heuristic builds its own identity-order diagram."""
    n = len(netlist.primary_inputs)
    candidates = []

    def natural():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        return VarOrder.identity(n), node_count(mgr, roots)

    def sifted():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        order = sift_reorder(mgr, roots)
        return order, node_count(mgr, roots)

    def genetic():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        order = ga_reorder(mgr, roots, seed=seed, **ga)
        dst, new_roots = build_from_netlist(netlist, order, node_cap)
        return order, node_count(dst, new_roots)

    for name, fn in (("natural", natural), ("sifting", sifted), ("ga", genetic)):
        try:
            candidates.append((name, *fn()))
        except NodeCapExceeded:
            pass
    winner, order, _ = min(candidates, key=lambda t: t[2])
    return order, winner, {name: count for name, _, count in candidates}


def label_matches_reference(net, seed, **ga):
    report = generate_label_report(
        net,
        seed=seed,
        ga_population=ga.get("population", 32),
        ga_generations=ga.get("generations", 50),
    )
    expected = three_build_label_report(net, seed=seed, **ga)
    assert (report.order, report.winner, report.counts) == expected


@pytest.mark.parametrize("seed", range(12))
def test_label_report_matches_three_builds_random(seed):
    r = random.Random(seed)
    n = r.randint(2, 8)
    net = random_cover_netlist(r, n, r.randint(2, 9), max_arity=3, n_outputs=r.randint(1, 3))
    label_matches_reference(net, seed, population=8, generations=6)


def test_label_report_matches_three_builds_desk():
    for i, net in enumerate(desk_corpus(12, seed=5, min_pis=6, max_pis=10)):
        label_matches_reference(net, i)


def test_label_report_builds_once(monkeypatch, pairs6):
    import bddseq.bdd as bdd

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_from_netlist(*args, **kwargs)

    monkeypatch.setattr(bdd, "build_from_netlist", counted)
    for net in (pairs6, read_once_tree(random.Random(3), 7)):
        calls.clear()
        generate_label_report(net, seed=0, ga_population=8, ga_generations=6)
        assert len(calls) == 1


def test_label_report_transfers_once(monkeypatch, pairs6):
    # the GA's private copy is the only transfer; the winner is counted on
    # the sifted diagram moved to the GA's order
    import bddseq.bdd as bdd

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return transfer(*args, **kwargs)

    monkeypatch.setattr(bdd, "transfer", counted)
    for net in (pairs6, read_once_tree(random.Random(3), 7)):
        calls.clear()
        report = generate_label_report(net, seed=0, ga_population=8, ga_generations=6)
        assert len(calls) == 1
        assert "ga" in report.counts


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
