"""The four benchmark workloads.

Every workload is a closed loop with one client: the runner starts an item
only after the previous one has finished. A workload makes all of its inputs
from the seed in `setup`, runs one item in `run`, and checks that item's
output in `check`, which the runner calls outside the timed region. `check`
also returns the item's deterministic output figures (BDD nodes, quantum
cost); the runner sums them over the items of the first pass, which every
run completes, so the sums repeat exactly for a seed.

The runner goes over a workload's `items` in passes of `PASS` items and ends
a run only at the end of a pass, so every run of a seed times the same items
whatever the machine's speed. The items of a pass are all different
circuits. With a pass of 20 circuits run five times over, the few circuits
a seed drew of each size set the percentiles, which then moved with the
seed; 100 different circuits average that out.

Circuit sizes and families follow a fixed schedule and only the structure is
drawn from the seed. With sizes drawn at random, the share of expensive
items (the 7-input exact searches, the widest sifts) would change from seed
to seed and so would the timings.

Only public functions of the library are called, so a later change that
keeps the library's interface can be measured without editing this file.
"""

from __future__ import annotations

import math
import random

from bddseq import bdd, blif, cli, gen, graph, search, synth
from bddseq import model as M
from bddseq.corpus import RunConfig

# Items every run completes: the p90 latency then has ten samples beyond it.
MIN_ITEMS = 100
MODES = ("efficiency", "balance", "quality")

# (family, inputs): one cycle of 20 circuits in the proportions that
# `gen.desk_corpus` draws at random. It picks 6..10 inputs uniformly and makes
# a read-once tree with probability 3/4, else a pair product over n // 2 pairs:
# each tree size three times, and pair products over 6, 6, 8, 8 and 10 inputs.
# With labels made from the first cycle, validation (every fourth slot) holds
# one pair product and four trees.
DESK_SCHEDULE = [
    ("tree", 6), ("pairs", 6), ("tree", 7), ("tree", 8), ("tree", 9),
    ("pairs", 8), ("tree", 10), ("tree", 6), ("tree", 7), ("tree", 8),
    ("pairs", 10), ("tree", 9), ("tree", 10), ("tree", 6), ("pairs", 6),
    ("tree", 7), ("tree", 8), ("tree", 9), ("tree", 10), ("pairs", 8),
]
# Read-once trees over 20..36 inputs, pair products over 20..26 and random
# covers with four outputs that share nodes. Wider pair products are left out:
# under a shuffled declaration order their diagram size is close to
# exponential in the number of pairs that the order splits, and from 28 inputs
# on their sift time varies over 20x from circuit to circuit.
WIDE_SCHEDULE = (
    [("pairs", n) for n in range(20, 27, 2)]
    + [("tree", n) for n in range(20, 37, 2)]
    + [("rand", n) for n in (20, 28, 36)]
)
EXACT_MAX_INPUTS = 7
LABELED = len(DESK_SCHEDULE)  # labeled desk circuits; every fourth one is validation
MODEL_SEED = 0  # labels, initialises and trains the model `predict` decodes with
SETUP_EPOCHS = 12  # training epochs of the model the predict workload decodes with
VECTORS = 8  # random input vectors per sift_wide item


class ItemFailed(Exception):
    """An item's output broke a correctness check."""


def _circuit(rng: random.Random, family: str, n: int, name: str) -> blif.Netlist:
    if family == "tree":
        return gen.read_once_tree(rng, n, name=name)
    if family == "pairs":
        return gen.pair_products(rng, n // 2, name=name)
    return gen.random_cover_netlist(rng, n, 2 * n, n_outputs=4, name=name)


def _schedule(schedule, count: int, stream: str, seed: int) -> list[blif.Netlist]:
    rng = random.Random(f"{stream}:{seed}")
    return [
        _circuit(rng, *schedule[i % len(schedule)], name=f"{stream}{i:04d}")
        for i in range(count)
    ]


def _labeled_set(cfg: RunConfig, seed: int):
    """Label desk circuits as `bddseq label` does; split into train and val."""
    features = graph.FeatureConfig(cfg.max_table_len, cfg.normalize_structural)
    train, val = [], []
    for i, net in enumerate(_schedule(DESK_SCHEDULE, LABELED, "labeled", seed)):
        prepared = blif.bound_fanin(net, cfg.decompose_arity)
        order = _label(prepared, cfg).order
        sample = (graph.blif2graph(prepared, features), order, prepared)
        (val if i % 4 == 3 else train).append(sample)
    return train, val


def _label(net: blif.Netlist, cfg: RunConfig):
    return bdd.generate_label_report(
        net,
        seed=cfg.seed,
        node_cap=cfg.node_cap,
        ga_population=cfg.ga_population,
        ga_generations=cfg.ga_generations,
        ga_tournament=cfg.ga_tournament,
        ga_mutation=cfg.ga_mutation,
    )


def _built(net: blif.Netlist, order, cfg: RunConfig):
    mgr, roots = bdd.build_from_netlist(net, order, node_cap=cfg.node_cap)
    return bdd.node_count(mgr, roots), synth.quantum_cost(synth.synthesize(mgr, roots, net))


def _is_permutation(order, n: int) -> bool:
    return sorted(order.permutation) == list(range(n))


class Classical:
    """Label making: parse, bound fan-in, label with natural/sifting/GA, and
    search the exact optimum for circuits of at most seven inputs."""

    PASS = 5 * len(DESK_SCHEDULE)

    def setup(self, seed: int) -> None:
        self.cfg = RunConfig(seed=seed)
        nets = _schedule(DESK_SCHEDULE, self.PASS, "classical", seed)
        self.items = [blif.write_blif(net) for net in nets]

    def run(self, text: str):
        net = blif.bound_fanin(blif.parse_blif(text), self.cfg.decompose_arity)
        report = _label(net, self.cfg)
        exact = None
        if len(net.primary_inputs) <= EXACT_MAX_INPUTS:
            exact = bdd.brute_force_optimal_order(net)
        return net, report, exact

    def check(self, text: str, out) -> dict:
        net, report, exact = out
        n = len(net.primary_inputs)
        if not _is_permutation(report.order, n):
            raise ItemFailed(f"{net.name}: label is not a permutation")
        count = min(report.counts.values())
        nodes, qc = _built(net, report.order, self.cfg)
        if nodes != count:
            raise ItemFailed(f"{net.name}: label reports {count} nodes, rebuild has {nodes}")
        if exact is not None and count < exact[1]:
            raise ItemFailed(f"{net.name}: label {count} beats the exact optimum {exact[1]}")
        return {"nodes": nodes, "qc": qc}


class SiftWide:
    """Sifting wide circuits: build under the declaration order, sift, and
    synthesize from the sifted diagram."""

    PASS = 20 * len(WIDE_SCHEDULE)

    def setup(self, seed: int) -> None:
        self.cfg = RunConfig(seed=seed)
        self.items = _schedule(WIDE_SCHEDULE, self.PASS, "wide", seed)

    def run(self, net: blif.Netlist):
        mgr, roots = bdd.build_from_netlist(
            net, bdd.VarOrder.identity(len(net.primary_inputs)), node_cap=self.cfg.node_cap
        )
        bdd.sift_reorder(mgr, roots)
        return mgr, roots, synth.synthesize(mgr, roots, net)

    def check(self, net: blif.Netlist, out) -> dict:
        mgr, roots, circuit = out
        n = len(net.primary_inputs)
        try:
            mgr.check()
        except AssertionError as exc:
            raise ItemFailed(f"{net.name}: BddManager.check failed: {exc}") from exc
        nodes = bdd.node_count(mgr, roots)
        start, start_roots = bdd.build_from_netlist(net, bdd.VarOrder.identity(n))
        if nodes > bdd.node_count(start, start_roots):
            raise ItemFailed(f"{net.name}: sifting grew the diagram")
        out_line = {name: i for i, name in enumerate(circuit.output_names) if name}
        rng = random.Random(net.name)
        for _ in range(VECTORS):
            vector = [rng.randint(0, 1) for _ in range(n)]
            expected = list(blif.simulate(net, vector))
            from_bdd = [mgr.eval(r, vector) for r in roots]
            state = synth.simulate_reversible(circuit, vector)
            from_circuit = [state[out_line[po]] for po in net.primary_outputs]
            if not expected == from_bdd == from_circuit:
                raise ItemFailed(f"{net.name}: netlist, BDD and circuit disagree on {vector}")
        return {"nodes": nodes, "qc": synth.quantum_cost(circuit)}


class Predict:
    """Inference as `bddseq eval` runs its model rows: parse a held-out
    circuit, then for each mode decode it with a model trained in setup,
    re-rank by BDD size, and synthesize with exhaustive verification.

    The model is trained from `MODEL_SEED` whatever the run's seed, as a
    deployed model would be, and the seed draws the held-out circuits. With a
    model trained from each seed, the quality of the model, which 12 epochs
    on 15 circuits leave to chance, set `qc_total`: it spread by 0.19 over
    ten seeds, against 0.01 to 0.06 on the other workloads."""

    PASS = 5 * len(DESK_SCHEDULE)

    def setup(self, seed: int) -> None:
        self.cfg = RunConfig(seed=seed)
        train, _ = _labeled_set(RunConfig(seed=MODEL_SEED), MODEL_SEED)
        dataset = [(g, order) for g, order, _ in train]
        mconfig = M.ModelConfig(
            feature_dim=dataset[0][0].features.shape[1],
            hidden=self.cfg.hidden,
            layers=self.cfg.layers,
            heads=self.cfg.heads,
        )
        self.params, _, _ = M.train(
            dataset,
            M.TrainConfig(
                epochs=SETUP_EPOCHS,
                batch_size=self.cfg.batch_size,
                learning_rate=self.cfg.learning_rate,
                seed=MODEL_SEED,
            ),
            params=M.init_params(mconfig, seed=MODEL_SEED),
        )
        nets = _schedule(DESK_SCHEDULE, self.PASS, "heldout", seed)
        self.items = [blif.write_blif(net) for net in nets]

    def run(self, text: str):
        net = blif.parse_blif(text)
        results = []
        for mode in MODES:
            order, _ = cli.predict_order(net, self.params, mode, self.cfg)
            circuit, nodes, _ = cli.synthesize_circuit(net, order, self.cfg)
            results.append((mode, order, nodes, circuit))
        return net, results

    def check(self, text: str, out) -> dict:
        net, results = out
        greedy, _ = cli.predict_order(net, self.params, "efficiency", self.cfg)
        greedy_nodes = _built(blif.bound_fanin(net, self.cfg.decompose_arity), greedy, self.cfg)[0]
        figures = {"nodes": 0, "qc": 0}
        for mode, order, nodes, circuit in results:
            if not _is_permutation(order, len(net.primary_inputs)):
                raise ItemFailed(f"{net.name}: {mode} order is not a permutation")
            if nodes > greedy_nodes:
                raise ItemFailed(f"{net.name}: {mode} re-rank {nodes} > greedy {greedy_nodes}")
            figures["nodes"] += nodes
            figures["qc"] += synth.quantum_cost(circuit)
        return figures


class Train:
    """Training: one item is one epoch of `model.train` with the greedy
    validation decode, as `bddseq train` runs it."""

    PASS = 1

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = RunConfig(seed=seed)
        self.train_set, self.val_set = _labeled_set(self.cfg, seed)
        self.params = M.init_params(
            M.ModelConfig(
                feature_dim=self.train_set[0][0].features.shape[1],
                hidden=self.cfg.hidden,
                layers=self.cfg.layers,
                heads=self.cfg.heads,
            ),
            seed=seed,
        )
        self.opt_state = None
        self.one_epoch = M.TrainConfig(
            epochs=1,
            batch_size=self.cfg.batch_size,
            learning_rate=self.cfg.learning_rate,
            seed=seed,
            uniform_weights=self.cfg.uniform_weights,
        )
        self.items = range(10**6)  # epoch numbers

    def run(self, epoch: int):
        self.params, history, self.opt_state = M.train(
            [(g, order) for g, order, _ in self.train_set],
            self.one_epoch,
            params=self.params,
            val_dataset=[(g, order) for g, order, _ in self.val_set],
            eval_fn=cli._decode_metrics,  # what `bddseq train` passes
            optimizer_state=self.opt_state,
            start_epoch=epoch,
        )
        return epoch, history[0]

    def check(self, epoch: int, out) -> dict:
        _, row = out
        if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"])):
            raise ItemFailed(f"epoch {epoch}: non-finite loss {row}")
        if epoch != MIN_ITEMS - 1:
            return {}
        # the model after the last epoch that every run completes: its loss,
        # and the size and cost of its greedy orders over held-out circuits
        # (`predict`'s items; over the 20 labeled ones, qc_total spread 0.11
        # from seed to seed)
        features = graph.FeatureConfig(self.cfg.max_table_len, self.cfg.normalize_structural)
        nodes = qc = 0
        for net in _schedule(DESK_SCHEDULE, Predict.PASS, "heldout", self.seed):
            prepared = blif.bound_fanin(net, self.cfg.decompose_arity)
            order = search.greedy_decode(graph.blif2graph(prepared, features), self.params)
            count, cost = _built(prepared, order, self.cfg)
            nodes += count
            qc += cost
        return {"loss": row["train_loss"], "nodes": nodes, "qc": qc}


WORKLOADS = {
    "classical": Classical,
    "sift_wide": SiftWide,
    "predict": Predict,
    "train": Train,
}
