"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -rA tests/test_acceptance.py` so the printed lines are
visible for passing tests too. The desk-scale fixtures (corpus, labels,
trained model) are built once per session and shared.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bddseq import model as M
from bddseq import search
from bddseq.bdd import (
    FALSE,
    TRUE,
    VarOrder,
    brute_force_optimal_order,
    build_from_netlist,
    ga_reorder,
    generate_label_report,
    node_count,
    shannon_build,
    sift_reorder,
)
from bddseq.blif import parse_blif, write_blif
from bddseq.cli import main
from bddseq.corpus import split_of
from bddseq.gen import desk_corpus, random_cover_netlist
from bddseq.graph import FeatureConfig, blif2graph
from bddseq.metrics import kendall_tau, spearman_rho
from bddseq.search import SearchConfig, diverse_beam_search, greedy_decode
from bddseq.synth import quantum_cost, synthesize, transistor_cost, verify_synthesis

from tests.conftest import C17_SRC, PAIRS6_SRC, T5_SRC
from tests.gradcheck import gradient_check, perturb_params
from tests.reference import exhaustive_verify, inverse, is_bijection, signature


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} ({title}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number:2d} ({title}): PASS [{time.time() - start:.1f}s]")


SEED = 42
FEATURES = FeatureConfig(max_table_len=16)


@pytest.fixture(scope="session")
def desk():
    """Labeled desk corpus (>= 100 circuits, <= 12 PIs) and a trained model."""
    start = time.time()
    nets = desk_corpus(120, seed=SEED, min_pis=6, max_pis=10)
    labels = {}
    for net in nets:
        labels[net.name] = generate_label_report(net, seed=SEED).order
    print(f"DESK FIXTURE labels: {len(nets)} circuits [{time.time() - start:.1f}s]")
    datasets = {"train": [], "val": [], "test": []}
    graphs = {}
    for net in nets:
        graph = blif2graph(net, FEATURES)
        graphs[net.name] = graph
        datasets[split_of(net.name, SEED)].append((net, graph, labels[net.name]))
    config = M.ModelConfig(feature_dim=16 + 4, hidden=64, layers=3, heads=4)
    params = M.init_params(config, seed=SEED)
    tconfig = M.TrainConfig(epochs=40, batch_size=8, learning_rate=3e-3, seed=SEED)
    train_pairs = [(g, l) for _, g, l in datasets["train"]]
    start = time.time()
    params, history, _ = M.train(train_pairs, tconfig, params=params)
    print(f"DESK FIXTURE training: {tconfig.epochs} epochs [{time.time() - start:.1f}s]")
    return {
        "nets": {n.name: n for n in nets},
        "labels": labels,
        "graphs": graphs,
        "datasets": datasets,
        "params": params,
        "history": history,
    }


def test_criterion_01_pair_function_counts():
    with criterion(1, "two-order node counts for the three-product function"):
        net = parse_blif(PAIRS6_SRC)
        mgr, roots = build_from_netlist(net, VarOrder.identity(6))
        assert node_count(mgr, roots) == 8
        # the published scrambled ordering, read as variable -> position;
        # as a level sequence it is x0, x2, x4, x1, x3, x5
        scrambled = inverse(VarOrder((0, 3, 1, 4, 2, 5)))
        assert scrambled == VarOrder((0, 2, 4, 1, 3, 5))
        mgr, roots = build_from_netlist(net, scrambled)
        assert node_count(mgr, roots) == 16


def test_criterion_02_construction_oracle_and_lower_bound():
    with criterion(2, "apply/Shannon structural equality + brute-force bound"):
        rng = random.Random(2024)
        checked_brute = 0
        for i in range(200):
            n_pi = rng.randint(2, 6) if i < 170 else rng.randint(7, 10)
            net = random_cover_netlist(rng, n_pi, rng.randint(2, 9), max_arity=3)
            perm = list(range(n_pi))
            rng.shuffle(perm)
            for order in (VarOrder.identity(n_pi), VarOrder(tuple(perm))):
                mgr, roots = build_from_netlist(net, order)
                oracle, oracle_roots = shannon_build(net, order)
                oracle.check()
                assert signature(mgr, roots) == signature(oracle, oracle_roots)
            if n_pi <= 8:
                _, optimum = brute_force_optimal_order(net)
                mgr, roots = build_from_netlist(net, VarOrder.identity(n_pi))
                _, sift_count = sift_reorder(mgr, roots)
                assert sift_count == node_count(mgr, roots)
                mgr2, roots2 = build_from_netlist(net, VarOrder.identity(n_pi))
                ga, _ = ga_reorder(mgr2, roots2, population=8, generations=6, seed=i)
                dst, nr = build_from_netlist(net, ga)
                ga_count = node_count(dst, nr)
                assert optimum <= min(sift_count, ga_count)
                checked_brute += 1
        assert checked_brute >= 180  # 182 here: 170 of 2-6 inputs, 12 of 7-8


def test_criterion_03_sifting_monotone(desk):
    with criterion(3, "sifting never increases the node count"):
        for name, net in desk["nets"].items():
            mgr, roots = build_from_netlist(
                net, VarOrder.identity(len(net.primary_inputs))
            )
            before = node_count(mgr, roots)
            _, count = sift_reorder(mgr, roots)
            assert node_count(mgr, roots) == count <= before, name


def test_criterion_04_search_reductions():
    with criterion(4, "beam-search reductions and hand-traced execution"):
        for seed in range(50):
            r = random.Random(seed)
            net = random_cover_netlist(r, r.randint(3, 5), r.randint(2, 6))
            graph = blif2graph(net, FeatureConfig(max_table_len=8))
            config = M.ModelConfig(
                feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2
            )
            params = M.init_params(config, seed=seed)
            perturb_params(params, 0.5, seed=seed + 1)
            greedy = greedy_decode(graph, params)
            single = diverse_beam_search(
                graph, params, SearchConfig(beam_width=1, groups=1, alpha=0.4)
            )
            assert single[0][0] == greedy
            m = 4
            plain = diverse_beam_search(graph, params, SearchConfig(m, 1, 0.0))
            for groups in (2, 4):
                grouped = diverse_beam_search(
                    graph, params, SearchConfig(beam_width=m, groups=groups, alpha=0.0)
                )
                assert [o.permutation for o, _ in plain] == [
                    o.permutation for o, _ in grouped
                ]
                for (_, sa), (_, sb) in zip(plain, grouped):
                    assert abs(sa - sb) < 1e-9
        # the scripted three-variable hand trace lives in test_search.py and
        # runs as part of the standard suite; assert its scenario here too
        from tests.test_search import scripted_advance

        net = parse_blif(
            ".model tri\n.inputs a b c\n.outputs o\n.names a b o\n11 1\n.end"
        )
        graph = blif2graph(net, FeatureConfig(max_table_len=4))
        config = M.ModelConfig(
            feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2
        )
        params = M.init_params(config, seed=0)
        original = search._advance
        search._advance = scripted_advance
        try:
            results = diverse_beam_search(
                graph, params, SearchConfig(beam_width=2, groups=2, alpha=0.5)
            )
        finally:
            search._advance = original
        assert [o.permutation for o, _ in results] == [(0, 2, 1), (0, 1, 2)]


def test_criterion_05_rank_metric_formulas():
    with criterion(5, "exact rank-correlation formulas up to n=6"):
        for n in range(2, 7):
            label = list(range(n))
            for perm in itertools.permutations(label):
                conc = disc = 0
                for a, b in itertools.combinations(range(n), 2):
                    s = (perm.index(a) - perm.index(b)) * (a - b)
                    conc += s > 0
                    disc += s < 0
                tau = (conc - disc) / (n * (n - 1) / 2)
                d2 = sum((perm.index(v) - v) ** 2 for v in label)
                rho = 1 - 6 * d2 / (n * (n * n - 1))
                assert kendall_tau(perm, label) == pytest.approx(tau, abs=1e-12)
                assert spearman_rho(perm, label) == pytest.approx(rho, abs=1e-12)


def test_criterion_06_gradient_check():
    with criterion(6, "analytic vs central-difference gradients"):
        # a minibatch of two circuits with 5 and 3 inputs: one is padded
        features = FeatureConfig(max_table_len=4)
        batch = [
            (blif2graph(parse_blif(T5_SRC), features), VarOrder((2, 0, 1, 4, 3))),
            (
                blif2graph(random_cover_netlist(random.Random(6), 3, 3, max_arity=2), features),
                VarOrder((1, 2, 0)),
            ),
        ]
        config = M.ModelConfig(
            feature_dim=batch[0][0].features.shape[1], hidden=8, layers=2, heads=2
        )
        params = M.init_params(config, seed=1)
        perturb_params(params, 0.05, seed=99)
        errors = gradient_check(batch, params, probes_per_group=8)
        worst = max(errors.values())
        print(f"    worst per-group relative error: {worst:.3e}")
        assert worst < 1e-4


def test_criterion_07_memorization():
    with criterion(7, "single-circuit memorization within 2000 steps"):
        net = parse_blif(T5_SRC)
        graph = blif2graph(net, FEATURES)
        label = generate_label_report(net, seed=SEED).order
        config = M.ModelConfig(feature_dim=16 + 4, hidden=32, layers=2, heads=4)
        params = M.init_params(config, seed=SEED)
        tconfig = M.TrainConfig(epochs=1, batch_size=1, learning_rate=3e-3, seed=SEED)
        steps = 0
        final_loss = None
        opt_state = None
        while steps < 2000:
            params, history, opt_state = M.train(
                [(graph, label)],
                tconfig,
                params=params,
                optimizer_state=opt_state,
                start_epoch=steps,
            )
            steps += 1
            final_loss = history[0]["train_loss"]
            if final_loss < 0.01:
                break
        print(f"    loss {final_loss:.5f} after {steps} steps")
        assert final_loss < 0.01
        decoded = greedy_decode(graph, params)
        assert decoded == label
        assert kendall_tau(decoded.permutation, label.permutation) == 1.0


def test_criterion_08_desk_scale_learning(desk):
    with criterion(8, "validation tau beats random ordering by 0.2"):
        val = desk["datasets"]["val"]
        assert len(desk["nets"]) >= 100
        assert len(val) >= 10
        params = desk["params"]
        model_taus = [
            kendall_tau(greedy_decode(g, params).permutation, label.permutation)
            for _, g, label in val
        ]
        rng = np.random.default_rng(SEED)
        random_taus = []
        for _, g, label in val:
            for _ in range(50):
                perm = tuple(int(v) for v in rng.permutation(g.num_pis))
                random_taus.append(kendall_tau(perm, label.permutation))
        model_mean = float(np.mean(model_taus))
        random_mean = float(np.mean(random_taus))
        print(f"    model mean tau {model_mean:.4f} vs random {random_mean:.4f}")
        assert model_mean > random_mean + 0.2


def test_criterion_09_synthesis_correctness(desk):
    with criterion(9, "exhaustive functional verification and reversibility"):
        fixtures = [parse_blif(PAIRS6_SRC), parse_blif(C17_SRC), parse_blif(T5_SRC)]
        fixtures += list(desk["nets"].values())
        bijections = 0
        for net in fixtures:
            n = len(net.primary_inputs)
            order = desk["labels"].get(net.name, VarOrder.identity(n))
            mgr, roots = build_from_netlist(net, order)
            circuit = synthesize(mgr, roots, net)
            assert n <= 10
            assert exhaustive_verify(circuit, net), net.name
            assert verify_synthesis(circuit, mgr, roots, net), net.name
            if circuit.lines <= 12:
                assert is_bijection(circuit), net.name
                bijections += 1
        assert bijections >= 10


# C17 metrics of a BDD-based reversible synthesizer that uses complement
# edges and recycles ancilla lines. Which tool or publication they come from
# is not recorded; they are compared under the label order C17_ORDER.
C17_REFERENCE = {"gates": 13, "lines": 9, "qc": 37, "transistor": 144}
C17_ORDER = ("G3", "G1", "G6", "G7", "G2")
# C17_ORDER's 9-node diagram traced by hand through the templates below
C17_HAND_TRACE = {"gates": 10, "lines": 11, "qc": 42, "transistor": 144}

# The template table of the bddseq.synth docstring: the (gates, controls,
# quantum cost) a node's low or high branch adds to the node's ancilla. A
# branch to a synthesized node g adds one Toffoli of cost 5.
LOW_TEMPLATE = {FALSE: (0, 0, 0), TRUE: (2, 1, 1 + 1)}
HIGH_TEMPLATE = {FALSE: (0, 0, 0), TRUE: (1, 1, 1)}
TOFFOLI_TEMPLATE = (1, 2, 5)
TRANSISTORS_PER_CONTROL = 8


def documented_counts(mgr, roots, n_inputs):
    """Circuit metrics that the synth.py templates give for the BDD under roots.

    A literal node (low=0, high=1) reuses its input line; every other
    internal node gets one ancilla and the gates of its two branch templates.
    The table has no rule for output copies, so the roots must be distinct
    internal nodes.
    """
    assert len(set(roots)) == len(roots) and min(roots) > TRUE
    gates = controls = qc = ancillas = 0
    seen = set()
    stack = list(roots)
    while stack:
        ref = stack.pop()
        if ref <= TRUE or ref in seen:
            continue
        seen.add(ref)
        low, high = mgr.low(ref), mgr.high(ref)
        stack += [low, high]
        if (low, high) == (FALSE, TRUE):
            continue
        ancillas += 1
        for template, child in ((LOW_TEMPLATE, low), (HIGH_TEMPLATE, high)):
            g, c, q = template.get(child, TOFFOLI_TEMPLATE)
            gates, controls, qc = gates + g, controls + c, qc + q
    return {
        "gates": gates,
        "lines": n_inputs + ancillas,
        "qc": qc,
        "transistor": TRANSISTORS_PER_CONTROL * controls,
    }


def circuit_counts(circuit):
    return {
        "gates": len(circuit.gates),
        "lines": circuit.lines,
        "qc": quantum_cost(circuit),
        "transistor": transistor_cost(circuit),
    }


def test_criterion_10_c17_reproduction():
    with criterion(10, "C17 costs within 20 percent, gates and lines per templates"):
        net = parse_blif(C17_SRC)
        n = len(net.primary_inputs)
        order = generate_label_report(net, seed=SEED).order
        mgr, roots = build_from_netlist(net, order)
        circuit = synthesize(mgr, roots, net)
        assert exhaustive_verify(circuit, net) and verify_synthesis(circuit, mgr, roots, net)
        got = circuit_counts(circuit)
        print("    metric     got  reference  divergence")
        for key, ref in C17_REFERENCE.items():
            print(f"    {key:<10} {got[key]:>4} {ref:>9}  {(got[key] - ref) / ref:+.1%}")

        # premise: the label order is C17_ORDER, whose diagram is the smallest
        sizes = {}
        line_floors = []
        for perm in itertools.permutations(range(n)):
            m, r = build_from_netlist(net, VarOrder(perm))
            sizes[perm] = node_count(m, r)
            documented = documented_counts(m, r, n)
            line_floors.append(documented["lines"])
            # gates and lines follow the documented templates exactly
            assert circuit_counts(synthesize(m, r, net)) == documented, perm
        names = tuple(net.primary_inputs[v] for v in order.permutation)
        assert names == C17_ORDER, (
            f"the label order for C17 is now {names}; the reference comparison "
            f"and its hand trace are stated for {C17_ORDER}"
        )
        assert sizes[order.permutation] == min(sizes.values()) == 9, (
            f"label order has {sizes[order.permutation]} nodes, "
            f"exhaustive minimum {min(sizes.values())}, expected 9"
        )
        assert got == C17_HAND_TRACE

        # one ancilla per non-literal node puts every order's line count above
        # the band around the reference's recycled 9 lines
        assert min(line_floors) > C17_REFERENCE["lines"] * 1.2, min(line_floors)

        for key in ("qc", "transistor"):
            div = (got[key] - C17_REFERENCE[key]) / C17_REFERENCE[key]
            assert abs(div) <= 0.20, f"{key} outside the 20% band: {got[key]}"


def test_criterion_11_end_to_end_improvement(desk):
    with criterion(11, "balance mode beats natural orders in total cost"):
        params = desk["params"]
        entries = desk["datasets"]["test"] + desk["datasets"]["val"]
        total_natural = 0
        total_balance = 0
        for net, graph, _ in entries:
            n = len(net.primary_inputs)
            mgr, roots = build_from_netlist(net, VarOrder.identity(n))
            total_natural += quantum_cost(synthesize(mgr, roots, net))
            scored = diverse_beam_search(graph, params, SearchConfig(*search.MODES["balance"]))
            candidates = [o for o, _ in scored]
            greedy = greedy_decode(graph, params)
            if greedy not in candidates:
                candidates.append(greedy)
            best = search.select_best_order(candidates, net)
            mgr_b, roots_b = build_from_netlist(net, best)
            total_balance += quantum_cost(synthesize(mgr_b, roots_b, net))
            # re-ranking never returns a worse diagram than the greedy order
            mgr_g, roots_g = build_from_netlist(net, greedy)
            assert node_count(mgr_b, roots_b) <= node_count(mgr_g, roots_g)
        print(f"    total QC: balance {total_balance} vs natural {total_natural}")
        assert total_balance <= total_natural


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, "byte-identical artifacts for identical config+seed"):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            "seed = 9\nepochs = 2\nga_generations = 3\nga_population = 6\n"
            "hidden = 16\nlayers = 2\nheads = 2\nrecord_times = false\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        for net in desk_corpus(8, seed=4, min_pis=4, max_pis=5):
            (src / f"{net.name}.blif").write_text(write_blif(net))
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            corpus = base / "corpus"
            run = base / "run"
            argv = ["--config", str(cfg_file)]
            assert main(argv + ["augment", str(src), "--variants", "2", "--out", str(corpus)]) == 0
            assert main(argv + ["label", str(corpus)]) == 0
            assert main(argv + ["train", str(corpus), "--out", str(run)]) == 0
            blif = sorted((corpus / "blif").glob("*.blif"))[0]
            assert main(
                argv
                + [
                    "predict",
                    str(blif),
                    "--weights",
                    str(run / "weights.bin"),
                    "--mode",
                    "balance",
                    "--trace",
                    "--out",
                    str(base / "pred"),
                ]
            ) == 0
            assert main(
                argv
                + [
                    "synth",
                    str(blif),
                    str(base / "pred" / f"{blif.stem}.order"),
                    "--out",
                    str(base / "synth"),
                ]
            ) == 0
            outputs.append(base)
        files_a = sorted(
            p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file()
        )
        files_b = sorted(
            p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file()
        )
        assert files_a == files_b
        for rel in files_a:
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), rel
