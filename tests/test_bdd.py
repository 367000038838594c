import itertools
import math
import operator
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq.bdd import (
    AND,
    EXACT_MAX_INPUTS,
    FALSE,
    HEURISTICS,
    NODE_CAP,
    OR,
    TRUE,
    XOR,
    BddManager,
    LevelTable,
    NodeCapExceeded,
    VarOrder,
    brute_force_optimal_order,
    build_from_netlist,
    ga_reorder,
    generate_label_report,
    node_count,
    shannon_build,
    shannon_count,
    sift_reorder,
    terminal_count,
    transfer,
)
from bddseq.blif import LogicGate, Netlist, evaluate, exhaustive_columns, parse_blif, simulate
from bddseq.gen import desk_corpus, pair_products, random_cover_netlist, read_once_tree
from bddseq.synth import synthesize, verify_synthesis
from tests.reference import (
    exhaustive_verify,
    gate_eval,
    inverse,
    level_widths,
    signature,
    unprotect,
)

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
    assert inverse(VarOrder((1, 0))) == VarOrder((1, 0))


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
    oracle.check()
    assert signature(mgr, roots) == signature(oracle, oracle_roots)


def test_sift_keeps_optimum(pairs6):
    mgr, roots = build_from_netlist(pairs6, NATURAL6)
    order, count = sift_reorder(mgr, roots)
    assert node_count(mgr, roots) == count == 8
    assert mgr.current_order() == order


def test_sift_reaches_optimum_from_scrambled(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order, count = sift_reorder(mgr, roots)
    assert node_count(mgr, roots) == count == 8
    assert mgr.current_order() == order


@pytest.mark.parametrize("seed", range(10))
def test_sift_monotone(seed):
    r = random.Random(seed + 100)
    net = random_cover_netlist(r, r.randint(3, 8), r.randint(2, 9))
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    before = node_count(mgr, roots)
    _, count = sift_reorder(mgr, roots)
    assert node_count(mgr, roots) == count <= before


def move_var(mgr, var, position):
    """Move `var` to `position`, one adjacent swap at a time."""
    while mgr.var2level[var] < position:
        mgr.swap_adjacent_levels(mgr.var2level[var])
    while mgr.var2level[var] > position:
        mgr.swap_adjacent_levels(mgr.var2level[var] - 1)


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
        move_var(mgr, var, best_pos)
    return mgr.current_order(), node_count(mgr, roots)


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
        unprotect(mgr, roots[0])
    held, sig = list(roots), signature(mgr, roots)
    with pytest.raises(ValueError):
        sift_reorder(mgr, roots)
    assert roots == held
    assert signature(mgr, roots) == sig
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
        gates.append(LogicGate(ins, f"g{g}", sorted(patterns), polarity))
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
    _, count = sift_reorder(mgr, roots)
    mgr.check()
    assert count == node_count(mgr, roots)
    oracle, oracle_roots = shannon_build(net, mgr.current_order())
    oracle.check()
    assert signature(mgr, roots) == signature(oracle, oracle_roots)
    circuit = synthesize(mgr, roots, net)
    assert verify_synthesis(circuit, mgr, roots, net) and exhaustive_verify(circuit, net)


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
    their (order, count) pairs, signatures and swap counts."""
    start = VarOrder.identity(len(net.primary_inputs))
    out = []
    for sift in (sift_reorder, walk_sift):
        mgr, roots = build_from_netlist(net, start)
        for level in swaps:
            mgr.swap_adjacent_levels(level)
        counter = count_swaps(mgr)
        out.append((sift(mgr, roots), signature(mgr, roots), counter[0]))
    return out


@settings(max_examples=100, deadline=None)
@given(netlists_with_swaps())
def test_bounded_sift_matches_walk_sift(case):
    # the lower bound only skips positions that cannot win
    (order, sig, swaps), (ref_order, ref_sig, ref_swaps) = sift_against_walk(*case)
    assert order == ref_order
    assert sig == ref_sig
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
    (order, sig, swaps), (ref_order, ref_sig, ref_swaps) = sift_against_walk(net)
    assert (order, sig) == (ref_order, ref_sig)
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
    order, count = sift_reorder(mgr, roots)
    assert largest[0] > mgr.node_cap  # the cap stopped some variable's pass
    assert node_count(mgr, roots) == count <= before
    assert mgr.current_order() == order
    mgr.check()
    oracle, oracle_roots = shannon_build(net, order)
    oracle.check()
    assert signature(mgr, roots) == signature(oracle, oracle_roots)


def bounded_sift(manager, roots):
    """Reference sifting with the lower bound on both sweeps, and nothing else
    skipped: every variable sweeps down, then walks back up over the positions
    it measured on the way down, whatever the bound at its start says."""
    manager.collect_garbage()
    terminals = terminal_count(roots)
    n = manager.n
    unique, order, var2level = manager.unique, manager.order, manager.var2level
    in_support = [0] * n
    for level in range(n):
        in_support[order[level]] = 1 if unique[level] else 0
    support = sum(in_support)
    for var in range(n):
        pos = var2level[var]
        best = (len(manager.nodes) + terminals, pos)
        above = sum(len(unique[level]) for level in range(pos))
        support_down = support - sum(in_support[order[level]] for level in range(pos))
        overflow = False
        while pos < n - 1 and above + support_down + terminals < best[0]:
            manager.swap_adjacent_levels(pos)
            above += len(unique[pos])
            support_down -= in_support[order[pos]]
            pos += 1
            best = min(best, (len(manager.nodes) + terminals, pos))
            if len(manager.nodes) > manager.node_cap:
                overflow = True
                break
        if not overflow:
            below = len(manager.nodes) - above - len(unique[pos])
            support_up = support - support_down + in_support[var]
            while pos > 0 and below + support_up + terminals <= best[0]:
                manager.swap_adjacent_levels(pos - 1)
                below += len(unique[pos])
                support_up -= in_support[order[pos]]
                pos -= 1
                best = min(best, (len(manager.nodes) + terminals, pos))
                if len(manager.nodes) > manager.node_cap:
                    break
        move_var(manager, var, best[1])
    return manager.current_order(), len(manager.nodes) + terminals


@st.composite
def sift_starts(draw):
    """A random netlist with some unused inputs and perhaps constant outputs,
    a start order (identity or shuffled) and a node cap: the collected live
    size plus some slack, or none; a slack of -1 starts the store over its
    cap, as a caller that lowers `node_cap` after the build can."""
    net = draw(netlists())
    unused = [f"u{i}" for i in range(draw(st.integers(0, 3)))]
    inputs = draw(st.permutations(net.primary_inputs + unused))
    gates, outputs = list(net.gates), list(net.primary_outputs)
    for k, cover in enumerate(draw(st.lists(st.sampled_from([[], [""]]), max_size=2))):
        gates.append(LogicGate([], f"c{k}", cover))
        outputs.insert(draw(st.integers(0, len(outputs))), f"c{k}")
    net = Netlist(name="fuzz", primary_inputs=inputs, primary_outputs=outputs, gates=gates)
    net.validate()
    perm = list(range(len(inputs)))
    if draw(st.booleans()):
        perm = draw(st.permutations(perm))
    slack = draw(st.one_of(st.none(), st.just(-1), st.integers(0, 12)))
    return net, VarOrder.of(perm), slack


def sift_against_bounded(net, start, slack):
    """Sift with `sift_reorder` and with `bounded_sift` from the same start and
    cap; return their orders, counts, signatures and swap counts."""
    out = []
    for sift in (sift_reorder, bounded_sift):
        mgr, roots = build_from_netlist(net, start)
        mgr.collect_garbage()
        mgr.node_cap = math.inf if slack is None else len(mgr.nodes) + slack
        counter = count_swaps(mgr)
        order, count = sift(mgr, roots)
        mgr.check()
        assert count == len(mgr.nodes) + terminal_count(roots)
        out.append((order, count, signature(mgr, roots), counter[0]))
    return out


@settings(max_examples=150, deadline=None)
@given(sift_starts())
def test_sift_matches_bounded_sift(case):
    # the walk back up and the sweeps of unsupported variables decide nothing
    (order, count, sig, _), (ref_order, ref_count, ref_sig, _) = sift_against_bounded(*case)
    assert (order, count, sig) == (ref_order, ref_count, ref_sig)


def park_by_move_loop(mgr):
    """Have the manager's `shuffle_to` move the one variable a parking order
    moves by `walk_sift`'s move loop, which no node cap stops."""

    def park(perm):
        order = list(mgr.order)
        moved = [level for level, var in enumerate(perm) if order[level] != var]
        if moved:
            top, bottom = moved[0], moved[-1]
            if perm[top] == order[bottom]:
                move_var(mgr, order[bottom], top)
            else:
                move_var(mgr, order[top], bottom)
        assert mgr.order == list(perm)
        return True

    mgr.shuffle_to = park


@settings(max_examples=150, deadline=None)
@given(sift_starts())
def test_sift_parks_with_the_swaps_of_walk_sifts_move_loop(case):
    # parking by `shuffle_to` makes the same swaps, and its cap never stops one
    net, start, slack = case
    runs = []
    for move_loop in (False, True):
        mgr, roots = build_from_netlist(net, start)
        mgr.collect_garbage()
        mgr.node_cap = math.inf if slack is None else len(mgr.nodes) + slack
        swap, levels = mgr.swap_adjacent_levels, []
        mgr.swap_adjacent_levels = lambda level: (levels.append(level), swap(level))
        if move_loop:
            park_by_move_loop(mgr)
        runs.append((sift_reorder(mgr, roots), levels))
    assert runs[0] == runs[1]


@settings(max_examples=150, deadline=None)
@given(sift_starts())
def test_sift_never_swaps_more_than_bounded_sift(case):
    (*_, swaps), (*_, ref_swaps) = sift_against_bounded(*case)
    assert swaps <= ref_swaps


@pytest.mark.parametrize(
    "family, swaps, ref_swaps",
    # `bounded_sift` makes the swaps of sifting without the walk-back skip
    # and the unsupported-variable rule; the cover reads 9 of its 16 inputs,
    # and its outputs depend on 5
    [("pairs", 148, 190), ("cover", 164, 260)],
)
def test_sift_skips_decided_sweeps(family, swaps, ref_swaps):
    r = random.Random(2)
    if family == "pairs":
        net = pair_products(r, 8)
    else:
        net = random_cover_netlist(r, 16, 10, n_outputs=3)
    start = VarOrder.identity(len(net.primary_inputs))
    got, ref = sift_against_bounded(net, start, None)
    assert got[:3] == ref[:3]
    assert (got[3], ref[3]) == (swaps, ref_swaps)


def test_ga_zero_generations_returns_best_seeded(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order, count = ga_reorder(mgr, roots, population=12, generations=0, seed=3)
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
    assert (order.permutation, count) == (best, count_of(best))


def reference_ga(
    manager,
    roots,
    population=32,
    generations=50,
    seed=0,
    tournament=3,
    mutation_prob=0.2,
    priced=None,
):
    """Reference GA that scores every tournament entrant again through the
    fitness cache, `min(candidates, key=lambda p: (fitness(p), p))`; for at
    least two inputs. Returns the best order and its fitness, and appends
    each order it prices, with its price, to `priced` when given.

    The seeded population, then each generation once bred in full, has its
    new orders priced in lexicographic order. Pricing reads a table of level
    sizes, keyed by (mask of the variables above, variable), that it keeps
    in its own plain way: it reads every level of its copy when the copy is
    made and after each of the copy's swaps. An order whose levels are all
    in the table is their sum plus the terminals, and node_cap plus the
    terminals plus one over the cap. Otherwise the copy first moves to
    perm's variable at each missing position, with the runs between them in
    the copy's own relative order. A move that passes the cap prices the
    same and leaves its copy there, so the copy is replaced at once by a
    fresh one at the caller's order."""
    n = manager.n
    cap = manager.node_cap
    terminals = terminal_count(roots)
    rng = random.Random(seed)
    fitness_cache = {}
    sizes = {}

    def measure(mgr):
        above = 0
        for level, var in enumerate(mgr.order):
            sizes[above, var] = len(mgr.unique[level])
            above |= 1 << var

    def fresh_copy():
        work, work_roots = transfer(manager, roots)
        swap = work.swap_adjacent_levels

        def measured_swap(level):
            swap(level)
            measure(work)

        work.swap_adjacent_levels = measured_swap  # what shuffle_to calls
        measure(work)
        return work

    def levels(perm):
        return [(sum(1 << v for v in perm[:i]), perm[i]) for i in range(n)]

    try:
        work = fresh_copy()
    except NodeCapExceeded:
        work = None

    def fitness(perm):
        nonlocal work
        hit = fitness_cache.get(perm)
        if hit is not None:
            return hit
        cost = cap + terminals + 1
        if work is not None:
            missing = [i for i, key in enumerate(levels(perm)) if key not in sizes]
            arrived = True
            if missing:
                target, start = [], 0
                for i in missing + [n]:
                    target += sorted(perm[start:i], key=work.order.index)
                    target += perm[i : i + 1]
                    start = i + 1
                arrived = work.shuffle_to(target)
                if not arrived:
                    work = fresh_copy()
            store = sum(sizes[key] for key in levels(perm)) if arrived else cap + 1
            if store <= cap:
                cost = store + terminals
        fitness_cache[perm] = cost
        if priced is not None:
            priced.append((perm, cost))
        return cost

    def order_crossover(p1, p2):
        a, b = sorted(rng.sample(range(n), 2))
        child = [None] * n
        child[a : b + 1] = p1[a : b + 1]
        held = set(p1[a : b + 1])
        it = iter([v for v in p2 if v not in held])
        for i in range(n):
            if child[i] is None:
                child[i] = next(it)
        return tuple(child)

    def mutate(perm):
        if rng.random() < mutation_prob:
            i, j = rng.sample(range(n), 2)
            lst = list(perm)
            lst[i], lst[j] = lst[j], lst[i]
            return tuple(lst)
        return perm

    pop = [tuple(manager.order)]
    while len(pop) < population:
        perm = list(range(n))
        rng.shuffle(perm)
        pop.append(tuple(perm))

    def best_of(candidates):
        return min(candidates, key=lambda p: (fitness(p), p))

    for perm in sorted(set(pop)):
        fitness(perm)
    elite = best_of(pop)
    for _ in range(generations):
        nxt = [elite]
        while len(nxt) < population:
            p1 = best_of([pop[rng.randrange(population)] for _ in range(tournament)])
            p2 = best_of([pop[rng.randrange(population)] for _ in range(tournament)])
            nxt.append(mutate(order_crossover(p1, p2)))
        pop = nxt
        for perm in sorted(set(pop)):
            fitness(perm)
        elite = best_of([elite, best_of(pop)])
    return VarOrder(elite), fitness(elite)


@settings(max_examples=150, deadline=None)
@given(
    netlists_with_swaps(),
    st.integers(0, 1000),
    st.integers(2, 10),
    st.integers(0, 6),
    st.integers(1, 4),
    st.floats(0, 1),
    st.none() | st.integers(0, 8),
)
def test_ga_matches_reference_ga(case, seed, population, generations, tournament, mutation, slack):
    # a cap a few nodes above the collected store makes some orders pass it
    # on the way, and which ones depends on the order the copy moves from
    net, swaps = case
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    for level in swaps:
        mgr.swap_adjacent_levels(level)
    if slack is not None:
        mgr.node_cap = len(mgr.reachable(roots) - {FALSE, TRUE}) + slack
    args = dict(
        population=population,
        generations=generations,
        seed=seed,
        tournament=tournament,
        mutation_prob=mutation,
    )
    order, count = ga_reorder(mgr, roots, **args)
    if mgr.n < 2:
        assert (order, count) == (mgr.current_order(), node_count(mgr, roots))
    else:
        assert (order, count) == reference_ga(mgr, roots, **args)


@pytest.mark.parametrize("seed", range(24))
def test_ga_matches_reference_ga_on_pair_products(seed):
    # pair products under a tight cap: interleaving orders blow up, so the
    # order in which the copy visits them decides which ones pass the cap
    r = random.Random(seed + 5000)
    net = pair_products(r, 2 * r.randint(2, 5))
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    mgr.node_cap = len(mgr.reachable(roots) - {FALSE, TRUE}) + r.randint(0, 8)
    args = dict(
        population=r.randint(2, 12),
        generations=r.randint(0, 8),
        seed=seed,
        tournament=r.randint(1, 4),
        mutation_prob=r.random(),
    )
    assert ga_reorder(mgr, roots, **args) == reference_ga(mgr, roots, **args)


@pytest.mark.parametrize("population", [16, 17, 32, 33, 64])
@pytest.mark.parametrize("n", [22, 26, 30])
def test_ga_matches_reference_ga_on_wide_trees(monkeypatch, n, population):
    # above 21 inputs `sample` draws its pair in its set form; 2^k is the
    # least population whose index draws take k + 1 bits, so half of them
    # are rejected, and 2^k + 1 rejects just under half
    net = read_once_tree(random.Random(n), n)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    args = dict(population=population, generations=3, seed=n + population, mutation_prob=0.5)
    assert ga_reorder(mgr, roots, **args) == reference_ga(mgr, roots, **args)
    ga_rng, reference_rng = made
    assert ga_rng.getstate() == reference_rng.getstate()  # the same draws, to the last


@pytest.mark.parametrize("mutation", [0.0, 1.0])
@pytest.mark.parametrize("tournament", [1, 4])
@pytest.mark.parametrize("population", [4, 5, 16, 17])
@pytest.mark.parametrize("n", [2, 6, 10, 21, 22])
def test_ga_draws_the_reference_stream(monkeypatch, n, population, tournament, mutation):
    # up to 21 inputs `sample` draws its pair in its pool form, whose second
    # index is below n - 1, so at n = 2 it reads bits until it gets 0; at 22
    # the set form takes over. Mutation 0 draws a coin and no pair, 1 a coin
    # and a pair for every child
    net = read_once_tree(random.Random(n), n)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    args = dict(
        population=population,
        generations=3,
        seed=n + population + tournament,
        tournament=tournament,
        mutation_prob=mutation,
    )
    assert ga_reorder(mgr, roots, **args) == reference_ga(mgr, roots, **args)
    ga_rng, reference_rng = made
    assert ga_rng.getstate() == reference_rng.getstate()


def record_pricing(monkeypatch):
    """Record every order `LevelTable.price` prices, with its price, and
    every `shuffle_to` move as (start order, target, arrived)."""
    priced, moves = [], []
    price, shuffle = LevelTable.price, BddManager.shuffle_to

    def recorded_price(self, perm):
        cost = price(self, perm)
        priced.append((perm, cost))
        return cost

    def recorded_shuffle(self, permutation, *rest):
        start = tuple(self.order)
        arrived = shuffle(self, permutation, *rest)
        moves.append((start, tuple(permutation), arrived))
        return arrived

    monkeypatch.setattr(LevelTable, "price", recorded_price)
    monkeypatch.setattr(BddManager, "shuffle_to", recorded_shuffle)
    return priced, moves


def test_ga_scores_orders_in_the_reference_sequence(monkeypatch):
    # equal final results would not show a GA that prices its orders in
    # another sequence or moves its copy elsewhere; under a tight cap these
    # decide which orders pass the cap, so every order priced, its price,
    # and every move's start, target and arrival are pinned
    priced, moves = record_pricing(monkeypatch)
    refused = unmoved = 0
    for seed in range(24):
        r = random.Random(seed + 5000)
        net = pair_products(r, 2 * r.randint(2, 5))
        mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
        mgr.node_cap = len(mgr.reachable(roots) - {FALSE, TRUE}) + r.randint(0, 8)
        args = dict(
            population=r.randint(2, 12),
            generations=r.randint(0, 8),
            seed=seed,
            tournament=r.randint(1, 4),
            mutation_prob=r.random(),
        )
        priced.clear()
        moves.clear()
        ga_reorder(mgr, roots, **args)
        got = list(priced), list(moves)
        ref_priced = []
        moves.clear()
        reference_ga(mgr, roots, **args, priced=ref_priced)
        assert got == (ref_priced, moves), seed
        refused += sum(not arrived for *_, arrived in moves)
        unmoved += len(ref_priced) - len(moves)
    assert refused > 0  # some orders passed the cap on the way
    assert unmoved > 0  # and some were priced from the table alone


def test_ga_moves_from_the_callers_order_after_a_refused_order(monkeypatch):
    # a refused move leaves its copy over the cap, so the next order is moved
    # from a fresh copy at the caller's order; after an arrived move the next
    # one starts where it arrived
    _, moves = record_pricing(monkeypatch)
    refused = arrived_after_refused = 0
    for seed in range(24):
        r = random.Random(seed + 5000)
        net = pair_products(r, 2 * r.randint(2, 5))
        n = len(net.primary_inputs)
        mgr, roots = build_from_netlist(net, VarOrder.identity(n))
        mgr.node_cap = len(mgr.reachable(roots) - {FALSE, TRUE}) + r.randint(0, 8)
        moves.clear()
        ga_reorder(mgr, roots, population=12, generations=8, seed=seed)
        callers = last = tuple(range(n))
        last_arrived = True
        for start, target, arrived in moves:
            assert start == (last if last_arrived else callers), seed
            arrived_after_refused += arrived and not last_arrived
            last, last_arrived = target, arrived
        refused += sum(not arrived for *_, arrived in moves)
    assert refused > 0 and arrived_after_refused > 0


@settings(max_examples=100, deadline=None)
@given(
    netlists_with_swaps(),
    st.integers(0, 1000),
    st.integers(2, 10),
    st.integers(0, 6),
    st.integers(1, 4),
    st.floats(0, 1),
)
def test_ga_prices_each_order_at_its_built_count(
    case, seed, population, generations, tournament, mutation
):
    # with no cap in reach, every price, read off the table or after a move,
    # is the count of a fresh build under that order
    net, swaps = case
    n = len(net.primary_inputs)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    for level in swaps:
        mgr.swap_adjacent_levels(level)
    with pytest.MonkeyPatch.context() as patch:
        priced, _ = record_pricing(patch)
        ga_reorder(
            mgr,
            roots,
            population=population,
            generations=generations,
            seed=seed,
            tournament=tournament,
            mutation_prob=mutation,
        )
    assert len(priced) >= (n > 1)
    for perm, cost in priced:
        built, built_roots = build_from_netlist(net, VarOrder(perm))
        assert cost == node_count(built, built_roots), perm


# desk_corpus(3, seed=7) labeled at the default GA settings, seed 0
GA_LABELS = {
    "pairs0000": ((0, 2, 4, 7, 3, 6, 1, 5), 10),
    "tree0001": ((0, 1, 2, 5, 3, 4), 8),
    "tree0002": ((0, 1, 3, 5, 7, 4, 6, 2), 10),
}


def test_ga_labels_are_pinned():
    got = {}
    for net in desk_corpus(3, seed=7):
        report = generate_label_report(net, seed=0)
        got[net.name] = (report.orders["ga"].permutation, report.counts["ga"])
    assert got == GA_LABELS


# desk_corpus(20, seed=11) labeled at the default settings, seed 0: the label
# order, the GA's order, and the (natural, sifting, GA) counts
DESK_LABELS = {
    'pairs0000': ((2, 0, 3, 1, 5, 4, 7, 6), (0, 2, 1, 3, 4, 5, 6, 7), (12, 10, 10)),
    'pairs0001': ((3, 1, 5, 4, 6, 0, 7, 2, 9, 8), (1, 3, 0, 6, 2, 7, 8, 9, 4, 5), (26, 12, 12)),
    'tree0002': ((2, 4, 7, 3, 6, 5, 1, 0), (2, 4, 0, 3, 1, 5, 6, 7), (15, 10, 10)),
    'tree0003': ((6, 1, 0, 8, 7, 5, 2, 4, 3), (0, 1, 2, 3, 4, 5, 7, 8, 6), (12, 11, 11)),
    'tree0004': ((2, 0, 1, 5, 3, 6, 4), (0, 1, 3, 4, 6, 5, 2), (11, 9, 9)),
    'tree0005': ((9, 8, 5, 1, 7, 4, 2, 6, 3, 0), (1, 0, 3, 6, 2, 4, 7, 5, 8, 9), (17, 12, 12)),
    'tree0006': ((6, 0, 5, 3, 4, 2, 1), (0, 1, 2, 4, 3, 5, 6), (10, 9, 9)),
    'tree0007': ((2, 5, 1, 4, 3, 0), (0, 3, 4, 1, 5, 2), (11, 8, 8)),
    'tree0008': ((0, 6, 3, 2, 8, 7, 5, 4, 1), (0, 2, 3, 6, 1, 4, 5, 7, 8), (14, 11, 11)),
    'tree0009': ((0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6), (9, 9, 9)),
    'tree0010': ((5, 4, 0, 2, 3, 1), (0, 1, 3, 2, 4, 5), (9, 8, 8)),
    'tree0011': ((6, 7, 4, 2, 9, 8, 3, 0, 5, 1), (2, 4, 7, 1, 0, 3, 8, 5, 9, 6), (23, 12, 12)),
    'tree0012': ((1, 2, 4, 7, 8, 5, 6, 3, 0), (1, 0, 3, 6, 5, 8, 7, 4, 2), (16, 11, 11)),
    'pairs0013': ((2, 0, 4, 3, 6, 5, 7, 1), (0, 2, 3, 4, 5, 6, 1, 7), (16, 10, 10)),
    'tree0014': ((9, 8, 7, 4, 2, 5, 6, 1, 0, 3), (2, 0, 1, 6, 5, 3, 4, 7, 8, 9), (17, 12, 12)),
    'tree0015': ((6, 3, 0, 7, 4, 2, 5, 1), (0, 1, 5, 2, 4, 7, 3, 6), (15, 10, 10)),
    'tree0016': ((8, 7, 5, 3, 6, 4, 2, 1, 0), (3, 0, 1, 2, 4, 6, 5, 7, 8), (13, 11, 11)),
    'tree0017': ((5, 1, 2, 3, 4, 0), (1, 0, 4, 3, 2, 5), (11, 8, 8)),
    'pairs0018': ((3, 2, 4, 0, 6, 5, 7, 1), (1, 7, 2, 3, 0, 4, 5, 6), (20, 10, 10)),
    'tree0019': ((1, 7, 2, 9, 6, 3, 0, 5, 8, 4), (1, 2, 4, 8, 5, 0, 3, 6, 9, 7), (19, 12, 12)),
}


def test_desk_labels_are_pinned():
    got = {}
    for net in desk_corpus(20, seed=11):
        report = generate_label_report(net, seed=0)
        counts = tuple(report.counts[name] for name in HEURISTICS)
        got[net.name] = (report.order.permutation, report.orders["ga"].permutation, counts)
    assert got == DESK_LABELS


@pytest.mark.parametrize("cap", [41, 2_000_000])
def test_ga_scores_each_order_once(monkeypatch, cap):
    mgr, roots = build_from_netlist(five_products(), VarOrder.identity(10))
    mgr.node_cap = cap
    priced, moves = record_pricing(monkeypatch)
    ga_reorder(mgr, roots, population=16, generations=10, seed=2)
    orders = [perm for perm, _ in priced]
    assert len(orders) > 16
    assert len(orders) == len(set(orders))
    # the table prices some orders with no move
    assert 0 < len(moves) < len(orders)
    # at cap 41 some moves pass the cap, and their orders are not priced
    # again either; they price the cap plus both terminals plus one
    assert all(arrived for *_, arrived in moves) == (cap > 41)
    assert (cap + 3 in {cost for _, cost in priced}) == (cap == 41)


@pytest.mark.parametrize(
    "name, value",
    [
        ("population", 1),
        ("generations", -1),
        ("tournament", 0),
        ("mutation_prob", 1.5),
        ("mutation_prob", -0.2),
        ("mutation_prob", float("nan")),
    ],
)
def test_ga_rejects_bad_arguments(pairs6, name, value):
    mgr, roots = build_from_netlist(pairs6, NATURAL6)
    with pytest.raises(ValueError, match=name):
        ga_reorder(mgr, roots, **{name: value})


@pytest.mark.parametrize(
    "src, count",
    [
        (".model t\n.inputs a\n.outputs o\n.names a o\n0 1\n.end", 3),
        (".model t\n.outputs one\n.names one\n1\n.end", 1),
    ],
)
def test_label_report_on_fewer_than_two_inputs(src, count):
    # one order only: the GA returns it before drawing anything
    net = parse_blif(src)
    report = generate_label_report(net, seed=0)
    assert report.order == VarOrder.identity(len(net.primary_inputs))
    assert report.winner == "natural"
    assert report.counts == {"natural": count, "sifting": count, "ga": count}


def test_ga_over_the_cap_returns_the_callers_order(pairs6):
    # even the caller's diagram is over the cap, so no order can be measured,
    # and the count is the score of an order over the cap: the cap plus both
    # terminals plus one
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    mgr.node_cap = 3
    assert ga_reorder(mgr, roots, seed=0) == (SCRAMBLED6, 6)


def test_ga_finds_optimum(pairs6):
    mgr, roots = build_from_netlist(pairs6, SCRAMBLED6)
    order, count = ga_reorder(mgr, roots, population=20, generations=30, seed=7)
    dst, nr = build_from_netlist(pairs6, order)
    assert node_count(dst, nr) == count == 8


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
        assert signature(work, work_roots) == signature(dst, dst_roots)
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
    protected, sig = list(mgr.protected), signature(mgr, roots)
    dst, dst_roots = transfer(mgr, roots)
    assert dst_roots == roots
    assert dst.order == perm
    assert signature(dst, dst_roots) == sig
    assert set(dst.nodes) == mgr.reachable(roots) - {FALSE, TRUE}
    dst.check()
    # the caller's order, diagrams and store are untouched
    assert mgr.order == perm
    assert signature(mgr, roots) == sig
    assert mgr.nodes == store
    assert mgr.protected == protected
    # nodes the copy makes later get fresh ids
    for level in range(n - 1):
        dst.swap_adjacent_levels(level)
        dst.check()
    ref, ref_roots = build_from_netlist(net, dst.current_order())
    assert signature(dst, dst_roots) == signature(ref, ref_roots)
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
    order_before, sig_before = list(mgr.order), signature(mgr, roots)
    ga_reorder(mgr, roots, population=10, generations=8, seed=5)
    assert mgr.order == order_before
    assert signature(mgr, roots) == sig_before


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
    order, _ = ga_reorder(mgr, roots, population=8, generations=4, seed=1)
    assert sorted(order.permutation) == list(range(10))


def test_ga_returns_an_order_within_the_cap():
    # a store of exactly node_cap counts node_cap + 2 with both terminals,
    # so an order over the cap must price above that: at seed 0 the tree's
    # store is 7, and an over-cap price of 8 would rank (0, 1, 2, 5, 3, 4),
    # whose store of 9 passes the cap, first
    for seed in range(40):
        r = random.Random(seed)
        net = pair_products(r, 3) if seed % 2 else read_once_tree(r, 6)
        mgr, roots = build_from_netlist(net, VarOrder.identity(6))
        mgr.collect_garbage()
        mgr.node_cap = len(mgr.nodes)
        order, count = ga_reorder(mgr, roots, population=8, generations=3, seed=seed)
        built, built_roots = build_from_netlist(net, order)
        built.collect_garbage()
        assert len(built.nodes) <= mgr.node_cap, seed
        assert count == node_count(built, built_roots), seed


@settings(max_examples=100, deadline=None)
@given(netlists(), st.data())
def test_level_table_holds_the_truth_table_widths(net, data):
    # every level size the table holds, from its copy's order and the moves
    # its pricing makes, is the width the subset DP reads off the truth
    # tables: the distinct output cofactors over the variables above that
    # depend on the variable; and each price sums those widths
    n = len(net.primary_inputs)
    table = LevelTable(partial(build_from_netlist, net, VarOrder.identity(n)))
    perms = data.draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=6))
    prices = table.price_all(perms)
    width = level_widths(net)
    for var, sizes in enumerate(table.sizes):
        for above, size in sizes.items():
            assert size == width(above, var), (var, above)
    for perm, price in zip(perms, prices):
        masks = [sum(1 << v for v in perm[:i]) for i in range(n)]
        assert price == sum(map(width, masks, perm)) + table.terminals, perm


@settings(max_examples=100, deadline=None)
@given(netlists(), st.integers(0, 8), st.data())
def test_level_table_prices_a_build_as_its_transfer(net, slack, data):
    # a collected store is canonical, so a table that owns a build and one
    # that owns a transfer of it hold the same levels and give the same
    # prices, refused moves (and the remakes after them) included, under a
    # cap from the collected store up to 8 nodes above it
    n = len(net.primary_inputs)
    order = VarOrder(tuple(data.draw(st.permutations(range(n)))))
    mgr, _ = build_from_netlist(net, order)
    mgr.collect_garbage()
    cap = len(mgr.nodes) + slack

    def build():
        built, roots = build_from_netlist(net, order)
        built.node_cap = cap
        return built, roots

    built, copied = LevelTable(build), LevelTable(partial(transfer, *build()))
    for _ in range(3):
        perms = data.draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=6))
        assert built.price_all(perms) == copied.price_all(perms)
    assert built.sizes == copied.sizes


@settings(max_examples=100, deadline=None)
@given(netlists(), st.data())
def test_shuffle_to_records_the_levels_it_swaps(net, data):
    # each size a move records, under a set of variables above a level and
    # the level's variable, is that level's size in a fresh build under any
    # order that puts that set above that variable
    n = len(net.primary_inputs)
    mgr, roots = build_from_netlist(net, VarOrder.identity(n))
    mgr.collect_garbage()
    sizes = [{} for _ in range(n)]
    for _ in range(3):
        assert mgr.shuffle_to(data.draw(st.permutations(range(n))), sizes)
    for var, table in enumerate(sizes):
        for above, size in table.items():
            top = [v for v in range(n) if above >> v & 1]
            rest = [v for v in range(n) if v != var and not above >> v & 1]
            built, _ = build_from_netlist(net, VarOrder((*top, var, *rest)))
            built.collect_garbage()
            assert size == len(built.unique[len(top)]), (var, top)


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
    oracle.check()
    assert signature(mgr, roots) == signature(oracle, oracle_roots)


@pytest.mark.parametrize("seed", range(10))
def test_shannon_oracle_never_applies(seed, monkeypatch):
    # the oracle builds by makenode alone: with apply broken it still gives
    # the apply-built diagram and its count, and the exact search's check holds
    r = random.Random(seed + 450)
    net = random_cover_netlist(r, r.randint(2, 7), r.randint(2, 10), n_outputs=r.randint(1, 3))
    perm = list(range(len(net.primary_inputs)))
    r.shuffle(perm)
    order = VarOrder(tuple(perm))
    mgr, roots = build_from_netlist(net, order)
    expected = signature(mgr, roots), node_count(mgr, roots)

    def broken(*args):
        raise AssertionError("the oracle applied an operator")

    monkeypatch.setattr(BddManager, "apply", broken)
    monkeypatch.setattr(BddManager, "apply_not", broken)
    oracle, oracle_roots = shannon_build(net, order)
    oracle.check()
    assert (signature(oracle, oracle_roots), shannon_count(net, perm)) == expected
    brute_force_optimal_order(net)


def recursive_signature(mgr, roots) -> tuple:
    """Reference: `signature` as one recursive walk of its own, numbering
    each internal node once its children are numbered, low side first."""
    index: dict[int, int] = {}
    out: list[tuple] = []

    def visit(ref: int) -> int:
        if ref in index:
            return index[ref]
        if ref <= TRUE:
            index[ref] = -1 - ref  # -1 for FALSE, -2 for TRUE
            return index[ref]
        rec = mgr.nodes[ref]
        lo = visit(rec[1])
        hi = visit(rec[2])
        index[ref] = len(out)
        out.append((rec[0], lo, hi))
        return index[ref]

    root_ids = tuple(visit(r) for r in roots)
    return (tuple(out), root_ids)


@settings(max_examples=100, deadline=None)
@given(netlists_with_swaps())
def test_postorder_lists_each_node_after_its_children(case):
    net, swaps = case
    mgr, roots = build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)))
    for level in swaps:
        mgr.swap_adjacent_levels(level)
    post = mgr.postorder(roots)
    place = {ref: i for i, ref in enumerate(post)}
    assert len(place) == len(post)
    assert set(post) == mgr.reachable(roots) - {FALSE, TRUE}
    for ref in post:
        assert all(c <= TRUE or place[c] < place[ref] for c in (mgr.low(ref), mgr.high(ref)))
    assert signature(mgr, roots) == recursive_signature(mgr, roots)
    oracle, oracle_roots = shannon_build(net, mgr.current_order())
    assert signature(oracle, oracle_roots) == recursive_signature(oracle, oracle_roots)


@pytest.mark.parametrize("seed", range(10))
def test_xor_apply_matches_and_or_not(seed):
    # for every pair of the diagram's functions, terminals included, AND, OR
    # and XOR evaluate pointwise and do not depend on the operand order, and
    # XOR is the ref AND, OR and NOT compose
    r = random.Random(seed + 600)
    net = random_cover_netlist(r, r.randint(2, 6), r.randint(2, 8), n_outputs=3)
    n = len(net.primary_inputs)
    perm = list(range(n))
    r.shuffle(perm)
    mgr, roots = build_from_netlist(net, VarOrder(tuple(perm)))
    refs = sorted(mgr.reachable(roots) | {FALSE, TRUE})
    assignments = list(itertools.product((0, 1), repeat=n))
    for f in refs:
        for g in refs:
            for op, bit in ((AND, operator.and_), (OR, operator.or_), (XOR, operator.xor)):
                h = mgr.apply(op, f, g)
                assert h == mgr.apply(op, g, f)
                assert all(mgr.eval(h, a) == bit(mgr.eval(f, a), mgr.eval(g, a)) for a in assignments)
            left = mgr.apply(AND, f, mgr.apply_not(g))
            right = mgr.apply(AND, mgr.apply_not(f), g)
            assert mgr.apply(XOR, f, g) == mgr.apply(OR, left, right)
    with pytest.raises(ValueError, match="^unknown op nand$"):
        mgr.apply("nand", refs[-1], refs[-2])
    mgr.check()


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


def test_a_label_maker_wins_only_below_every_earlier_count(reversed_maker, pairs6):
    import bddseq.bdd as bdd

    # a frozen 4-input cover on which the reversed order, last in the tie
    # order, is strictly smallest; on pairs6 it ties and loses
    r = random.Random(2460)
    net = random_cover_netlist(
        r, r.randint(4, 7), r.randint(2, 9), max_arity=3, n_outputs=r.randint(1, 3)
    )
    report = generate_label_report(net, seed=0, ga_population=8, ga_generations=6)
    assert report.counts == {"natural": 8, "ga": 8, "reversed": 7, "sifting": 8}
    assert report.winner == "reversed"
    assert report.order == VarOrder((3, 2, 1, 0))
    report = generate_label_report(pairs6, seed=0)
    assert report.counts["reversed"] == report.counts["natural"] == 8
    assert report.winner == "natural"
    assert set(report.seconds) == set(bdd.HEURISTICS)


def three_build_label_report(netlist, seed=0, node_cap=2_000_000, **ga):
    """Reference: each heuristic builds its own identity-order diagram."""
    n = len(netlist.primary_inputs)
    candidates = []

    def natural():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        return VarOrder.identity(n), node_count(mgr, roots)

    def sifted():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        order, _ = sift_reorder(mgr, roots)
        return order, node_count(mgr, roots)

    def genetic():
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
        order, _ = ga_reorder(mgr, roots, seed=seed, **ga)
        dst, new_roots = build_from_netlist(netlist, order, node_cap)
        return order, node_count(dst, new_roots)

    for name, fn in (("natural", natural), ("sifting", sifted), ("ga", genetic)):
        try:
            candidates.append((name, *fn()))
        except NodeCapExceeded:
            pass
    winner, order, _ = min(candidates, key=lambda t: t[2])
    orders = {name: order for name, order, _ in candidates}
    return order, winner, {name: count for name, _, count in candidates}, orders


def label_matches_reference(net, seed, **ga):
    report = generate_label_report(
        net,
        seed=seed,
        ga_population=ga.get("population", 32),
        ga_generations=ga.get("generations", 50),
    )
    *expected, orders = three_build_label_report(net, seed=seed, **ga)
    assert (report.order, report.winner, report.counts) == tuple(expected)
    assert {name: report.orders[name] for name in orders} == orders
    assert set(report.orders) == set(report.seconds) == set(HEURISTICS)


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
    # sifting and the GA each copy the shared identity diagram once and move
    # their copy; those are the only transfers, and the shared one stays put
    import bddseq.bdd as bdd

    calls, sifted = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return transfer(*args, **kwargs)

    def sift_recorded(mgr, roots):
        sifted.append(mgr)
        return sift_reorder(mgr, roots)

    monkeypatch.setattr(bdd, "transfer", counted)
    monkeypatch.setattr(bdd, "sift_reorder", sift_recorded)
    for net in (pairs6, read_once_tree(random.Random(3), 7)):
        calls.clear()
        sifted.clear()
        report = generate_label_report(net, seed=0, ga_population=8, ga_generations=6)
        (shared, _), (again, _) = calls
        assert shared is again and sifted[0] is not shared
        assert shared.current_order() == VarOrder.identity(len(net.primary_inputs))
        assert set(report.counts) == set(HEURISTICS)


def label_case(seed):
    """A random tree, pair product or cover of 2-10 inputs."""
    r = random.Random(seed + 7000)
    if seed % 3 == 0:
        return read_once_tree(r, r.randint(2, 10))
    if seed % 3 == 1:
        return pair_products(r, r.randint(1, 5))
    return random_cover_netlist(
        r, r.randint(2, 10), r.randint(2, 9), max_arity=3, n_outputs=r.randint(1, 3)
    )


def natural_build_fits(net, cap):
    try:
        build_from_netlist(net, VarOrder.identity(len(net.primary_inputs)), cap)
    except NodeCapExceeded:
        return False
    return True


@pytest.mark.parametrize("seed", range(18))
def test_label_counts_are_the_counts_of_fresh_builds(seed):
    # each count is read where its search found the order; at every cap from
    # the smallest the natural build fits upward, each equals the count of a
    # fresh build under that order, and so does the GA's own count
    net = label_case(seed)
    n = len(net.primary_inputs)
    smallest = next(cap for cap in itertools.count(1) if natural_build_fits(net, cap))
    for cap in (smallest, smallest + 1, smallest + 3, smallest + 10, NODE_CAP):
        report = generate_label_report(
            net, seed=seed, node_cap=cap, ga_population=8, ga_generations=6
        )
        assert set(report.counts) == set(HEURISTICS)
        for name in HEURISTICS:
            mgr, roots = build_from_netlist(net, report.orders[name])
            assert report.counts[name] == node_count(mgr, roots), (cap, name)
        assert report.order == report.orders[report.winner]
        mgr, roots = build_from_netlist(net, VarOrder.identity(n), cap)
        order, count = ga_reorder(mgr, roots, population=8, generations=6, seed=seed)
        rebuilt, rebuilt_roots = build_from_netlist(net, order)
        assert count == node_count(rebuilt, rebuilt_roots), cap


@pytest.mark.parametrize("seed", range(6))
def test_label_makers_give_the_same_labels_in_any_order(monkeypatch, seed):
    # no maker moves a diagram another reads, so the table's order is only
    # the tie order: any run order gives each maker the same order and count
    import bddseq.bdd as bdd

    net = label_case(seed)
    smallest = next(cap for cap in itertools.count(1) if natural_build_fits(net, cap))
    makers = dict(bdd.LABEL_MAKERS)
    for cap in (smallest + 1, NODE_CAP):
        args = dict(seed=seed, node_cap=cap, ga_population=8, ga_generations=6)
        report = generate_label_report(net, **args)
        for names in itertools.permutations(makers):
            monkeypatch.setattr(bdd, "LABEL_MAKERS", {name: makers[name] for name in names})
            again = generate_label_report(net, **args)
            assert (again.orders, again.counts) == (report.orders, report.counts), names


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


def xor_chain(pairs: int) -> Netlist:
    """o = XOR over i of (a_i AND b_i), one two-cube XOR gate per pair, with
    the inputs declared a0.. then b0.., so the identity order separates each
    product's inputs and the chain's temporaries dwarf its live nodes."""
    inputs = " ".join(f"{c}{i}" for c in "ab" for i in range(pairs))
    lines = [".model xor_chain", f".inputs {inputs}", ".outputs o", ".names p0 s0", "1 1"]
    lines += [f".names s{pairs - 1} o", "1 1"]
    for i in range(pairs):
        lines += [f".names a{i} b{i} p{i}", "11 1"]
    for i in range(1, pairs):
        lines += [f".names s{i - 1} p{i} s{i}", "10 1", "01 1"]
    return parse_blif("\n".join(lines) + "\n.end\n")


def test_a_build_collects_from_the_signals_it_holds(monkeypatch):
    # 18 inputs: 5 925 stored nodes with no collection, 1 279 live. Under a
    # cap of 5 725 (threshold 2 862) the build collects twice and finishes;
    # each collection keeps the signals a gate still reads and the outputs,
    # though the manager protects nothing until the outputs are done
    net = xor_chain(9)
    order = VarOrder.identity(18)
    full, full_roots = build_from_netlist(net, order)
    assert len(full.nodes) == 5925 and node_count(full, full_roots) == 1279
    collect, freed = BddManager.collect_garbage, []

    def looking(mgr, extra=()):
        assert mgr.protected == []
        mgr.check()
        freed.append(collect(mgr, extra))
        mgr.check()
        return freed[-1]

    monkeypatch.setattr(BddManager, "collect_garbage", looking)
    mgr, roots = build_from_netlist(net, order, node_cap=5725)
    assert freed == [2290, 2423] and len(mgr.nodes) == 1277
    assert signature(mgr, roots) == signature(full, full_roots)
    assert mgr.protected == roots
    mgr.check()
    freed.clear()
    with pytest.raises(NodeCapExceeded):  # the live signals alone outgrow it
        build_from_netlist(net, order, node_cap=3602)
    assert freed == [2290]


def or_chain(pairs: int) -> Netlist:
    """o = OR over i of (a_i AND b_i), one OR gate per pair, with the inputs
    declared a0.. then b0.., as `xor_chain` declares them."""
    inputs = " ".join(f"{c}{i}" for c in "ab" for i in range(pairs))
    lines = [".model or_chain", f".inputs {inputs}", ".outputs o", ".names p0 s0", "1 1"]
    lines += [f".names s{pairs - 1} o", "1 1"]
    for i in range(pairs):
        lines += [f".names a{i} b{i} p{i}", "11 1"]
    for i in range(1, pairs):
        lines += [f".names s{i - 1} p{i} s{i}", "1- 1", "-1 1"]
    return parse_blif("\n".join(lines) + "\n.end\n")


def test_a_build_collection_frees_dead_gate_outputs():
    # 20 inputs: 3 069 stored nodes with no collection, 2 046 of them live.
    # Each partial OR s_i is read by gate s_{i+1} alone, so once that gate is
    # built a collection may free s_i's diagram: under a cap of 2 557
    # (threshold 1 278) the build finishes, where keeping every gate output
    # until the end needs the whole 3 069
    net = or_chain(10)
    order = VarOrder.identity(20)
    full, full_roots = build_from_netlist(net, order)
    assert len(full.nodes) == 3069 and node_count(full, full_roots) == 2048
    mgr, roots = build_from_netlist(net, order, node_cap=2557)
    assert signature(mgr, roots) == signature(full, full_roots)
    assert len(mgr.nodes) == 2046 and mgr.protected == roots
    mgr.check()
    with pytest.raises(NodeCapExceeded):
        build_from_netlist(net, order, node_cap=2556)


@pytest.mark.parametrize("seed", range(20))
def test_truth_tables_match_per_assignment_eval(seed):
    r = random.Random(seed + 300)
    net = random_cover_netlist(r, r.randint(1, 7), r.randint(1, 10), n_outputs=r.randint(1, 3))
    n = len(net.primary_inputs)
    expected = [0] * len(net.primary_outputs)
    for i in range(1 << n):
        values = {s: (i >> (n - 1 - j)) & 1 for j, s in enumerate(net.primary_inputs)}
        for g in net.topo_gates():
            values[g.output] = gate_eval(g, [values[s] for s in g.inputs])
        for k, po in enumerate(net.primary_outputs):
            expected[k] |= values[po] << i
    assert evaluate(net, exhaustive_columns(n), 1 << n) == tuple(expected)
