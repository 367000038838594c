#!/usr/bin/env python3
"""Show how the variable order drives BDD size and synthesis cost.

Builds f = x0*x1 + x2*x3 + x4*x5 under every ordering heuristic and prints
node counts next to the reversible-circuit metrics of each result.
"""

from bddseq.bdd import (
    VarOrder,
    brute_force_optimal_order,
    build_from_netlist,
    ga_reorder,
    node_count,
    sift_reorder,
)
from bddseq.blif import parse_blif
from bddseq.synth import quantum_cost, synthesize, transistor_cost

SOURCE = """\
.model pairs6
.inputs x0 x1 x2 x3 x4 x5
.outputs f
.names x0 x1 p0
11 1
.names x2 x3 p1
11 1
.names x4 x5 p2
11 1
.names p0 p1 p2 f
1-- 1
-1- 1
--1 1
.end
"""


def report(netlist, title, order):
    mgr, roots = build_from_netlist(netlist, order)
    circuit = synthesize(mgr, roots, netlist)
    print(
        f"{title:<22} order={order.permutation}  nodes={node_count(mgr, roots):>3}"
        f"  gates={len(circuit.gates):>3}  lines={circuit.lines:>3}"
        f"  qc={quantum_cost(circuit):>3}  transistors={transistor_cost(circuit):>4}"
    )


def main() -> None:
    net = parse_blif(SOURCE)
    report(net, "paired (good)", VarOrder.identity(6))
    report(net, "interleaved (bad)", VarOrder((0, 2, 4, 1, 3, 5)))

    mgr, roots = build_from_netlist(net, VarOrder((0, 2, 4, 1, 3, 5)))
    sifted, _ = sift_reorder(mgr, roots)
    report(net, "after sifting", sifted)

    mgr, roots = build_from_netlist(net, VarOrder((0, 2, 4, 1, 3, 5)))
    ga, _ = ga_reorder(mgr, roots, population=20, generations=30, seed=7)
    report(net, "after genetic search", ga)

    best, count = brute_force_optimal_order(net)
    report(net, "exact optimum", best)


if __name__ == "__main__":
    main()
