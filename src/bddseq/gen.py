"""Synthetic netlist generators for tests and the desk-scale corpus.

Read-once formula trees have small BDDs under a leaf-order traversal and
blow up under scrambled orders, so their labels carry learnable structure.
Pair-product circuits (disjunctions of two-input products) show the same
effect in its simplest form. Random cover netlists exercise the engines on
unstructured functions.
"""

from __future__ import annotations

import random

from .blif import LogicGate, Netlist

AND2 = ["11"]
OR2 = ["1-", "-1"]

# (cover, polarity): AND, OR, NAND, NOR, in the order the trees draw them
_OPS = [(AND2, 1), (OR2, 1), (AND2, 0), (OR2, 0)]


def read_once_tree(rng: random.Random, n_leaves: int, name: str = "tree") -> Netlist:
    """Random read-once formula over n_leaves variables with 2-input gates.

    The primary-input declaration order is shuffled independently of the
    leaf order, so a good variable order must be inferred from structure.
    """
    if n_leaves < 2:
        raise ValueError("need at least two leaves")
    pis = [f"x{i}" for i in range(n_leaves)]
    declaration = list(pis)
    rng.shuffle(declaration)
    frontier = list(pis)
    rng.shuffle(frontier)
    gates: list[LogicGate] = []
    counter = 0
    while len(frontier) > 1:
        a = frontier.pop(0)
        b = frontier.pop(0)
        out = f"n{counter}"
        counter += 1
        cover, polarity = rng.choice(_OPS)
        gates.append(LogicGate([a, b], out, list(cover), polarity))
        # bias toward chains: reinsert near the front so depth accumulates
        frontier.insert(rng.randrange(0, min(2, len(frontier) + 1)), out)
    netlist = Netlist(
        name=name,
        primary_inputs=declaration,
        primary_outputs=[frontier[0]],
        gates=gates,
    )
    netlist.validate()
    return netlist


def pair_products(rng: random.Random, pairs: int, name: str = "pairs") -> Netlist:
    """OR of two-input products, with shuffled input declaration order."""
    pis = [f"x{i}" for i in range(2 * pairs)]
    declaration = list(pis)
    rng.shuffle(declaration)
    assignment = list(pis)
    rng.shuffle(assignment)
    gates = []
    product_signals = []
    for k in range(pairs):
        out = f"p{k}"
        gates.append(
            LogicGate([assignment[2 * k], assignment[2 * k + 1]], out, list(AND2))
        )
        product_signals.append(out)
    acc = product_signals[0]
    for k, sig in enumerate(product_signals[1:]):
        out = f"s{k}"
        gates.append(LogicGate([acc, sig], out, list(OR2)))
        acc = out
    netlist = Netlist(
        name=name, primary_inputs=declaration, primary_outputs=[acc], gates=gates
    )
    netlist.validate()
    return netlist


def random_cover_netlist(
    rng: random.Random,
    n_pi: int,
    n_gates: int,
    max_arity: int = 3,
    n_outputs: int = 2,
    name: str = "rand",
) -> Netlist:
    """Unstructured random netlist with random cube covers."""
    pis = [f"x{i}" for i in range(n_pi)]
    signals = list(pis)
    gates = []
    for g in range(n_gates):
        arity = rng.randint(1, min(max_arity, len(signals)))
        ins = rng.sample(signals, arity)
        n_cubes = rng.randint(1, 3)
        patterns = sorted(
            {"".join(rng.choice("01-") for _ in range(arity)) for _ in range(n_cubes)}
        )
        polarity = rng.randint(0, 1)
        out = f"g{g}"
        gates.append(LogicGate(ins, out, patterns, polarity))
        signals.append(out)
    outs = rng.sample([g.output for g in gates], min(n_outputs, len(gates)))
    netlist = Netlist(name=name, primary_inputs=pis, primary_outputs=outs, gates=gates)
    netlist.validate()
    return netlist


def desk_corpus(count: int, seed: int, min_pis: int = 6, max_pis: int = 10):
    """Mixture of structured circuits used by the desk-scale experiments."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(min_pis, max_pis)
        if rng.random() < 0.75:
            net = read_once_tree(rng, n, name=f"tree{i:04d}")
        else:
            net = pair_products(rng, max(2, n // 2), name=f"pairs{i:04d}")
        out.append(net)
    return out
