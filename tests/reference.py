"""Reference code the tests check the library against, and small helpers
that only the tests need.

`exhaustive_verify` is the independent oracle for synthesized circuits. It
runs every input assignment at once, one per bit lane, through the netlist
and through the cascade. The library's own check, `synth.verify_synthesis`,
works on the diagrams the circuit was synthesized from, so it trusts the BDD
engine; this one does not.

`composed_decoder_advance` is the decoder step composed of elementary
autodiff ops, 21 nodes a step, with `sigmoid` and `outer_add`, the two ops
only it needs. The library fuses the step into `lstm` and `pointer`; the
tests check that the fused step gives the same bits.
"""

import csv
import operator
from pathlib import Path

import numpy as np

from bddseq import autodiff as ad
from bddseq.bdd import FALSE, TRUE, VarOrder
from bddseq.blif import evaluate, exhaustive_columns
from bddseq.synth import run_cascade

# the bit-lane algebra's AND, NOT and XOR for `run_cascade`
LANES = (operator.and_, operator.invert, operator.xor)


def exhaustive_verify(circuit, netlist) -> bool:
    """The primary-output lines reproduce the netlist on all 2**n inputs."""
    n = len(netlist.primary_inputs)
    lanes = 1 << n
    full = (1 << lanes) - 1
    columns = exhaustive_columns(n)
    expected = evaluate(netlist, columns, lanes)
    it = iter(columns)
    start = [next(it) if c is None else full * c for c in circuit.constants]
    state = run_cascade(circuit, start, full, *LANES)
    po_lines = {name: i for i, name in enumerate(circuit.output_names) if name is not None}
    return all(
        state[po_lines[name]] == table
        for name, table in zip(netlist.primary_outputs, expected)
    )


def level_widths(netlist):
    """`width(above, var)`: the size of var's level in the netlist's reduced
    diagrams under any order that puts the variables of the mask `above`
    (bit v for input v) over it, read off the output truth tables alone as
    the distinct cofactors of the outputs, over every assignment of those
    variables, that depend on var."""
    n = len(netlist.primary_inputs)
    lanes = 1 << n
    tables = evaluate(netlist, exhaustive_columns(n), lanes)

    def width(above: int, var: int) -> int:
        # input v is bit n - 1 - v of an assignment's lane index
        fixed = sum(1 << (n - 1 - v) for v in range(n) if above >> v & 1)
        flip = 1 << (n - 1 - var)
        free = [lane for lane in range(lanes) if not lane & fixed]
        cofactors = {
            tuple(table >> (a | lane) & 1 for lane in free)
            for table in tables
            for a in range(lanes)
            if not a & ~fixed
        }
        place = {lane: i for i, lane in enumerate(free)}
        return sum(
            any(cof[place[lane]] != cof[place[lane | flip]] for lane in free if not lane & flip)
            for cof in cofactors
        )

    return width


def apply_to_state(circuit, state) -> list[int]:
    """Run the cascade on a full line-state vector, ignoring constants."""
    return run_cascade(circuit, [int(b) for b in state], 1, *LANES)


def is_bijection(circuit) -> bool:
    """The full line-state map is a permutation of {0,1}^lines."""
    images = set()
    for i in range(1 << circuit.lines):
        state = [(i >> k) & 1 for k in range(circuit.lines)]
        images.add(tuple(apply_to_state(circuit, state)))
    return len(images) == 1 << circuit.lines


def inverse(order: VarOrder) -> VarOrder:
    """The order's variable -> position map, read as an order."""
    inv = [0] * len(order)
    for pos, var in enumerate(order):
        inv[var] = pos
    return VarOrder(tuple(inv))


def gate_eval(gate, values) -> int:
    """One-bit value of a gate's cover, one cube at a time."""
    hit = any(
        all(p == "-" or p == str(v) for p, v in zip(pattern, values))
        for pattern in gate.cover
    )
    return gate.polarity if hit else 1 - gate.polarity


def round_based_topo(net):
    """Reference order: each round takes every ready gate in declaration order."""
    producers = {g.output for g in net.gates}
    placed, ordered, remaining = set(), [], list(net.gates)
    while remaining:
        ready = [
            g for g in remaining
            if all(s in placed for s in g.inputs if s in producers)
        ]
        assert ready, "cycle"
        ordered += ready
        placed |= {g.output for g in ready}
        remaining = [g for g in remaining if g.output not in placed]
    return ordered


def structural_reference(net) -> dict[str, tuple[int, int, int, int]]:
    """Per signal (rank, depth, fan-in, fan-out), each found on its own:
    rank in the round-based order, depth by recursion over the drivers,
    fan-in from the driving gate, fan-out by counting the listings of the
    signal among gate inputs and primary outputs."""
    drivers = {g.output: g for g in net.gates}
    order = list(net.primary_inputs) + [g.output for g in round_based_topo(net)]

    def depth(s):
        g = drivers.get(s)
        return 0 if g is None else 1 + max((depth(t) for t in g.inputs), default=-1)

    def fanout(s):
        listed = sum(g.inputs.count(s) for g in net.gates)
        return listed + net.primary_outputs.count(s)

    return {
        s: (rank, depth(s), len(drivers[s].inputs) if s in drivers else 0, fanout(s))
        for rank, s in enumerate(order)
    }


def read_csv(path):
    """(header, rows) of a report written by `corpus.write_csv`."""
    rows = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    reader = csv.reader(rows)
    header = next(reader)
    return header, list(reader)


# two outputs on one diagram node, over inputs named like the lines synthesis
# adds: an output copy `o_g` and ancillas `w<k>`
CLASH_SRC = (
    ".model clash\n.inputs a b o_g w2 w3\n.outputs f g\n"
    ".names a b f\n11 1\n.names f g\n1 1\n.end\n"
)


def deep_chain(n: int) -> tuple[str, list[str]]:
    """(BLIF, order) of an OR chain over n inputs that ends in a polarity-0
    gate. The order puts each new input above the chain, so the build takes
    linear time, and complementing, walking and checking the n-node diagram
    each recurse about n levels deep."""
    lines = [".model chain", ".inputs " + " ".join(f"x{i}" for i in range(n)), ".outputs f"]
    prev = "x0"
    for k in range(1, n):
        lines += [f".names {prev} x{k} t{k}", "1- 1", "-1 1"]
        prev = f"t{k}"
    lines += [f".names {prev} f", "1 0", ".end"]
    return "\n".join(lines) + "\n", [f"x{i}" for i in reversed(range(n))]


def signature(mgr, roots) -> tuple:
    """Canonical structural fingerprint of the diagrams under the roots: the
    manager's `postorder` nodes as (level, low, high) by their place in it,
    with -1 for FALSE and -2 for TRUE, and the roots the same way."""
    post = mgr.postorder(roots)
    index = {FALSE: -1, TRUE: -2, **{ref: i for i, ref in enumerate(post)}}
    recs = (mgr.nodes[ref] for ref in post)
    nodes = tuple((rec[0], index[rec[1]], index[rec[2]]) for rec in recs)
    return nodes, tuple(index[ref] for ref in roots)


def unprotect(mgr, ref: int) -> None:
    """Undo one `BddManager.protect(ref)`."""
    mgr.protected.remove(ref)
    if ref > TRUE:
        mgr.nodes[ref][3] -= 1


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-ad.value(a)))
    return ad._node(y, (a,), lambda g: g * y * (1.0 - y)) if ad._grad_enabled else y


def outer_add(a, b):
    """All sums of (B, H) rows and their (B, P, H) keys, one block of P per
    row, as (B*P, H): row r*P + p is a[r] + b[r, p]."""
    ax, bx = ad.value(a), ad.value(b)
    y = (ax[:, None, :] + bx).reshape(-1, ax.shape[1])
    if not ad._grad_enabled:
        return y
    return ad._node(
        y, (a, b), lambda g: g.reshape(bx.shape).sum(1), lambda g: g.reshape(bx.shape)
    )


def composed_decoder_advance(hidden, cell, prev_emb, keys, params):
    """`model.decoder_advance` as elementary ops: same arguments and results."""
    hdim = params.config.hidden
    z = ad.add(
        ad.add(ad.matmul(prev_emb, params["dec.Wx"]), ad.matmul(hidden, params["dec.Wh"])),
        params["dec.b"],
    )
    gate_i = sigmoid(ad.slice_cols(z, 0, hdim))
    gate_f = sigmoid(ad.slice_cols(z, hdim, 2 * hdim))
    gate_g = ad.tanh(ad.slice_cols(z, 2 * hdim, 3 * hdim))
    gate_o = sigmoid(ad.slice_cols(z, 3 * hdim, 4 * hdim))
    cell = ad.add(ad.mul(gate_f, cell), ad.mul(gate_i, gate_g))
    hidden = ad.mul(gate_o, ad.tanh(cell))
    q = ad.matmul(hidden, params["ptr.Wq"])  # (B, H)
    att = ad.tanh(outer_add(q, keys))  # (B*P, H)
    return ad.matmul(att, params["ptr.v"]), hidden, cell
