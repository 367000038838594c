"""Hash-consed ROBDD engine with reordering.

Levels index positions in the variable order; the variable tested at a level
is `order.permutation[level]`. Terminals live at level n. Node counts include
the terminals and count nodes shared between output roots once.

`apply` takes AND and OR, for construction, and XOR, for the symbolic check
of a synthesized cascade (`synth.verify_synthesis`). A build runs each gate
through `LogicGate.apply` on diagram refs. The recursions take one frame per
level, so a manager raises the recursion limit with its variable count.

Reordering has one mechanism, the standard in-place adjacent level swap:
nodes at the upper level that depend on the lower variable are rewritten in
place (their identity, and hence all parent references, survive), independent
nodes slide down one level, and lower-level nodes that are still referenced
from outside the swapped band slide up. Reference counts track parent and
root references. `check()` audits every refcount.

Garbage has one rule: a collected store holds exactly the live nodes, and a
swap keeps it that way, since it frees every node it orphans. Construction
leaves dead nodes behind for the mark-and-sweep collector, so every reorder
(sifting, and the `LevelTable` of the GA and the search's re-rank) collects
once before its first swap and reads node counts from the store, with no
walk. Protection holds only roots, during a build as after it: a
collection mid-build, at `gc_threshold`, marks from the outputs and the
signals still to be read as well, so it frees dead gate outputs. `shuffle_to`
is the one mover: it takes a diagram to a whole new order, with the node cap
checked on every swap; sifting parks each variable with it, and a
`LevelTable` moves its own diagram, recording the levels each swap rewrote.
`transfer` copies the live nodes under some roots into a fresh, collected
manager with the same order; a new order is reached from there by swaps.
Sifting, the GA, the exact search and each label maker of `LABEL_MAKERS`
return `(order, count)`, so label making counts each order once, where its
search found it. The makers share one identity-order diagram: natural reads
it, and sifting and the GA each move a copy of their own.

The GA draws from `random.Random(seed)` the stream `randrange`, `sample`,
`random` and `shuffle` would, so the seed fixes its orders, but it breeds
each generation in one loop with those draws written in place, as CPython
makes them from `getrandbits`, and ranks each generation once for its
tournaments. One pricing primitive, a `LevelTable` of the level sizes its
own diagram has shown, prices the GA's orders and the re-rank's candidates
(`search.select_best_order`): a level's size depends only on its variable
and the set of variables above it (Friedman and Supowit, IEEE TC 39(5),
1990), and a collected store is canonical, so a size measured under one
order holds under all. An order whose levels are all measured is priced with
no move; otherwise the diagram moves to the nearest order that shows the
missing ones. `price_all` prices each new order once, in lexicographic
order, so consecutive ones share their prefixes. An order that does not fit
the node cap prices above every count that fits.

Sifting reaches the orders plain sifting does with fewer swaps, by a lower
bound. As a level's size depends only on its variable and the set of
variables above it, while a variable moves down from position j the levels
above j keep their sizes, and every support variable (one with a non-empty
level, in any order) keeps at least one node; the same holds upward for the
levels below j. A sweep stops once that bound cannot beat the best count
seen. Two rules skip the moves that bound already decides. The up sweep's
bound at the start position is known before the down sweep, so a variable
walks back up only when that bound can still win; otherwise it goes straight
to its best position. A variable outside the support ties at every position,
so it goes to position 0 with no sweep.

Exact orders come from the Friedman-Supowit dynamic program over subsets of
variables, run on the output truth tables (`brute_force_optimal_order`). Its
count uses no node store; every exact search checks it against the Shannon
oracle (`shannon_count`), which builds into a manager's store by `makenode`
alone, independent of `apply`.
"""

from __future__ import annotations

import random
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

from .blif import Netlist, evaluate, exhaustive_columns

FALSE = 0
TRUE = 1
EXACT_MAX_INPUTS = 12  # largest input count the exact order search accepts
NODE_CAP = 2_000_000  # default cap on a manager's stored nodes

AND = "and"
OR = "or"
XOR = "xor"
_NOT = "not"
_ABSORBING = {AND: FALSE, OR: TRUE}  # the other terminal is the op's identity


class NodeCapExceeded(Exception):
    """The unique table outgrew the configured node cap (ordering blow-up)."""


@dataclass(frozen=True)
class VarOrder:
    """Position -> variable index; a bijection on {0..n-1}."""

    permutation: tuple[int, ...]

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.permutation}")

    def __len__(self) -> int:
        return len(self.permutation)

    def __iter__(self):
        return iter(self.permutation)

    def position_of(self, var: int) -> int:
        return self.permutation.index(var)

    @staticmethod
    def identity(n: int) -> "VarOrder":
        return VarOrder(tuple(range(n)))

    @staticmethod
    def of(seq) -> "VarOrder":
        return VarOrder(tuple(int(v) for v in seq))


class BddManager:
    """Mutable ROBDD store for one fixed set of variables."""

    def __init__(self, order: VarOrder, node_cap: int = NODE_CAP):
        self.n = len(order)
        # apply, apply_not and postorder recurse once per level
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * self.n + 1000))
        self.order = list(order.permutation)
        self.var2level = [0] * self.n
        for pos, var in enumerate(self.order):
            self.var2level[var] = pos
        self.node_cap = node_cap
        self.gc_threshold = max(node_cap // 2, 1024)
        # id -> [level, low, high, refcount]; ids 0/1 are the terminals
        self.nodes: dict[int, list[int]] = {}
        self.unique: list[dict[tuple[int, int], int]] = [dict() for _ in range(self.n)]
        self.cache: dict = {}
        self.protected: list[int] = []
        self._next_id = 2

    # -- basic structure ---------------------------------------------------

    def low(self, ref: int) -> int:
        return self.nodes[ref][1]

    def high(self, ref: int) -> int:
        return self.nodes[ref][2]

    def var_of(self, ref: int) -> int:
        return self.order[self.nodes[ref][0]]

    def _incref(self, ref: int) -> None:
        if ref > TRUE:
            self.nodes[ref][3] += 1

    def makenode(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        hit = self.unique[level].get((low, high))
        if hit is not None:
            return hit
        if len(self.nodes) >= self.node_cap:
            raise NodeCapExceeded(f"node cap {self.node_cap} exceeded")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = [level, low, high, 0]
        if low > TRUE:
            self.nodes[low][3] += 1
        if high > TRUE:
            self.nodes[high][3] += 1
        self.unique[level][(low, high)] = nid
        return nid

    def var(self, v: int) -> int:
        """The single-variable function for variable index v."""
        return self.makenode(self.var2level[v], FALSE, TRUE)

    def protect(self, ref: int) -> None:
        self.protected.append(ref)
        self._incref(ref)

    # -- apply -------------------------------------------------------------

    def apply_not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        key = (_NOT, f)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        rec = self.nodes[f]
        out = self.makenode(rec[0], self.apply_not(rec[1]), self.apply_not(rec[2]))
        self.cache[key] = out
        return out

    def apply(self, op: str, f: int, g: int) -> int:
        if f > g:
            f, g = g, f  # every op is commutative
        absorbing = _ABSORBING.get(op)
        if absorbing is not None:
            if f <= TRUE:  # the absorbing value or the identity
                return f if f == absorbing else g
            if f == g:
                return f
        elif op == XOR:
            if f == g:
                return FALSE
            if f <= TRUE:  # a terminal operand: g itself or its negation
                return g if f == FALSE else self.apply_not(g)
        else:
            raise ValueError(f"unknown op {op}")
        key = (op, f, g)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        # both operands are internal nodes here
        lf, f0, f1, _ = self.nodes[f]
        lg, g0, g1, _ = self.nodes[g]
        level = min(lf, lg)
        if lf != level:
            f0 = f1 = f
        if lg != level:
            g0 = g1 = g
        out = self.makenode(level, self.apply(op, f0, g0), self.apply(op, f1, g1))
        self.cache[key] = out
        return out

    # -- evaluation and counting -------------------------------------------

    def eval(self, ref: int, assignment) -> int:
        """assignment maps variable index -> bit."""
        while ref > TRUE:
            level, low, high, _ = self.nodes[ref]
            ref = high if assignment[self.order[level]] else low
        return ref

    def reachable(self, roots) -> set[int]:
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            ref = stack.pop()
            if ref in seen:
                continue
            seen.add(ref)
            if ref > TRUE:
                rec = self.nodes[ref]
                stack.append(rec[1])
                stack.append(rec[2])
        return seen

    def postorder(self, roots) -> list[int]:
        """The distinct internal nodes under the roots, children first, the
        low side before the high, roots in turn."""
        out: dict[int, None] = {}  # a node enters once its children have

        def visit(ref: int) -> None:
            if ref > TRUE and ref not in out:
                rec = self.nodes[ref]
                visit(rec[1])
                visit(rec[2])
                out[ref] = None

        for ref in roots:
            visit(ref)
        return list(out)

    def check(self) -> None:
        """Assert reduction and ordering invariants over the whole store."""
        for level, table in enumerate(self.unique):
            for (low, high), nid in table.items():
                rec = self.nodes[nid]
                assert rec[0] == level and rec[1] == low and rec[2] == high
                assert low != high, "redundant node"
                for child in (low, high):
                    assert child <= TRUE or self.nodes[child][0] > level, "unordered child"
        keys = [
            (rec[0], rec[1], rec[2]) for rec in self.nodes.values()
        ]
        assert len(keys) == len(set(keys)), "duplicate (level, low, high) triple"
        # a refcount counts the store nodes naming the node as low or high,
        # plus its entries in the protected list
        refs = dict.fromkeys(self.nodes, 0)
        for ref in [c for rec in self.nodes.values() for c in rec[1:3]] + self.protected:
            if ref > TRUE:
                assert ref in refs, f"dangling reference to node {ref}"
                refs[ref] += 1
        for nid, rec in self.nodes.items():
            assert rec[3] == refs[nid], f"node {nid} refcount {rec[3]}, {refs[nid]} references"

    # -- garbage collection --------------------------------------------------

    def collect_garbage(self, extra=()) -> int:
        """Mark-and-sweep from the protected set plus `extra`; rebuilds the unique table."""
        live = self.reachable([*self.protected, *extra])
        dead = [nid for nid in self.nodes if nid not in live]
        for nid in dead:
            del self.nodes[nid]
        self.unique = [dict() for _ in range(self.n)]
        for nid, rec in self.nodes.items():
            rec[3] = 0
            self.unique[rec[0]][(rec[1], rec[2])] = nid
        for rec in self.nodes.values():
            if rec[1] > TRUE:
                self.nodes[rec[1]][3] += 1
            if rec[2] > TRUE:
                self.nodes[rec[2]][3] += 1
        for ref in self.protected:
            self._incref(ref)
        self.cache.clear()
        return len(dead)

    # -- adjacent level swap -------------------------------------------------

    def swap_adjacent_levels(self, level: int) -> "BddManager":
        """Exchange the variables at positions level and level+1 in place.

        Expects a collected store, and leaves one: every node the swap
        orphans is freed. On an uncollected store the functions and refcounts
        still come out right, but the garbage already there is left in place.
        New nodes take fresh ids in the order of the upper level's table, the
        low cofactor's before the high one's.
        """
        if not 0 <= level < self.n - 1:
            raise ValueError(f"level {level} out of range")
        self.cache.clear()
        nodes = self.nodes
        lower = level + 1
        old_up = self.unique[level]
        old_lo = self.unique[lower]
        new_up: dict[tuple[int, int], int] = {}
        new_lo: dict[tuple[int, int], int] = {}

        # (node, low, high, cofactors of low, cofactors of high) w.r.t. the
        # lower variable, for the upper nodes that test it below them
        dependents = []
        for key, nid in old_up.items():
            low, high = key
            l0 = l1 = low
            h0 = h1 = high
            if low > TRUE:
                rec = nodes[low]
                if rec[0] == lower:
                    l0, l1 = rec[1], rec[2]
            if high > TRUE:
                rec = nodes[high]
                if rec[0] == lower:
                    h0, h1 = rec[1], rec[2]
            if l0 == l1 and h0 == h1:
                # keeps testing the same variable, which moves down one level
                nodes[nid][0] = lower
                new_lo[key] = nid
            else:
                dependents.append((nid, low, high, l0, l1, h0, h1))

        next_id = self._next_id
        for nid, low, high, l0, l1, h0, h1 in dependents:
            if l0 == h0:
                g0 = l0
            else:
                g0 = new_lo.get((l0, h0))
                if g0 is None:
                    g0 = next_id
                    next_id += 1
                    nodes[g0] = [lower, l0, h0, 0]
                    if l0 > TRUE:
                        nodes[l0][3] += 1
                    if h0 > TRUE:
                        nodes[h0][3] += 1
                    new_lo[(l0, h0)] = g0
            if l1 == h1:
                g1 = l1
            else:
                g1 = new_lo.get((l1, h1))
                if g1 is None:
                    g1 = next_id
                    next_id += 1
                    nodes[g1] = [lower, l1, h1, 0]
                    if l1 > TRUE:
                        nodes[l1][3] += 1
                    if h1 > TRUE:
                        nodes[h1][3] += 1
                    new_lo[(l1, h1)] = g1
            rec = nodes[nid]
            rec[1], rec[2] = g0, g1
            if g0 > TRUE:
                nodes[g0][3] += 1
            if g1 > TRUE:
                nodes[g1][3] += 1
            if low > TRUE:
                nodes[low][3] -= 1
            if high > TRUE:
                nodes[high][3] -= 1
            new_up[(g0, g1)] = nid
        self._next_id = next_id

        for key, nid in old_lo.items():
            rec = nodes[nid]
            if rec[3] > 0:
                # still referenced from outside the band: moves up with its variable
                rec[0] = level
                new_up[key] = nid
            else:
                if rec[1] > TRUE:
                    nodes[rec[1]][3] -= 1
                if rec[2] > TRUE:
                    nodes[rec[2]][3] -= 1
                del nodes[nid]

        self.unique[level] = new_up
        self.unique[lower] = new_lo
        u, v = self.order[level], self.order[lower]
        self.order[level], self.order[lower] = v, u
        self.var2level[u], self.var2level[v] = lower, level
        return self

    def current_order(self) -> VarOrder:
        return VarOrder(tuple(self.order))

    def shuffle_to(self, permutation, sizes=None) -> bool:
        """Reorder to `permutation` in place by adjacent swaps.

        As CUDD's `Cudd_ShuffleHeap` does, each variable in turn, from the
        top, moves up to its position, so positions that already hold their
        variable cost no swap. The cap holds on every swap: the move stops
        as soon as the store passes `node_cap`, leaves the manager at that
        intermediate (valid) order and returns False; True when it arrives.
        No collection is needed on the way: a swap frees what it orphans, so
        a collected store stays exactly the live nodes.

        With `sizes`, a `LevelTable`'s, every swap records the sizes of the
        two levels it rewrote, as `sizes[var][mask]` for the variable at each
        and the variables above it as a mask; so does a swap that passes the
        cap, since its store is still exact.
        """
        if len(permutation) != self.n:
            raise ValueError("order does not permute the manager's variables")
        order, unique = self.order, self.unique
        for pos, var in enumerate(permutation):
            level = self.var2level[var]
            if sizes is not None and level > pos:
                above = 0  # the variables above var, as a mask
                for v in order[:level]:
                    above |= 1 << v
            while level > pos:
                level -= 1
                self.swap_adjacent_levels(level)
                if sizes is not None:
                    passed = order[level + 1]
                    above ^= 1 << passed
                    sizes[var][above] = len(unique[level])
                    sizes[passed][above | 1 << var] = len(unique[level + 1])
                if len(self.nodes) > self.node_cap:
                    return False
        return True


def node_count(manager: BddManager, roots) -> int:
    """Distinct nodes reachable from the roots, terminals included."""
    return len(manager.reachable(roots))


def terminal_count(roots) -> int:
    """Terminals the reduced diagrams under the roots reach.

    A store that holds exactly the nodes under the roots counts
    `len(manager.nodes) + terminal_count(roots)` nodes, with no walk.
    """
    # a reduced nonconstant diagram reaches both terminals
    return 2 if any(r > TRUE for r in roots) else len(set(roots))


def over_cap_price(manager: BddManager, roots) -> int:
    """The price of an order over the node cap: above every count that fits."""
    return manager.node_cap + terminal_count(roots) + 1


def build_from_netlist(
    netlist: Netlist, order: VarOrder, node_cap: int = NODE_CAP
) -> tuple[BddManager, list[int]]:
    """Apply-based construction of all primary-output functions.

    Protection holds only roots: the signals stay in the build's own map,
    and the output roots are protected at the end. Before a gate, a store at
    `gc_threshold` keeps in that map only the outputs and the signals this or
    a later gate reads, and collects with them as extra live roots.
    """
    if len(order) != len(netlist.primary_inputs):
        raise ValueError("order does not permute the primary inputs")
    mgr = BddManager(order, node_cap=node_cap)
    algebra = TRUE, partial(mgr.apply, AND), partial(mgr.apply, OR), mgr.apply_not
    refs = {name: mgr.var(i) for i, name in enumerate(netlist.primary_inputs)}
    gates = netlist.topo_gates()
    for i, gate in enumerate(gates):
        if len(mgr.nodes) >= mgr.gc_threshold:
            held = {*netlist.primary_outputs, *(s for g in gates[i:] for s in g.inputs)}
            refs = {sig: ref for sig, ref in refs.items() if sig in held}
            mgr.collect_garbage(refs.values())
        refs[gate.output] = gate.apply([refs[s] for s in gate.inputs], *algebra)
    roots = [refs[po] for po in netlist.primary_outputs]
    for ref in roots:
        mgr.protect(ref)
    return mgr, roots


def sift_reorder(manager: BddManager, roots) -> tuple[VarOrder, int]:
    """Rudell-style sifting: park each variable at its best position; returns
    the order reached and its count.

    Precondition: every diagram the manager protects belongs to the roots,
    and every internal root is protected, as `build_from_netlist` leaves
    them. The pass first collects garbage, so the store holds exactly the
    nodes under the roots. A swap keeps it that way: it frees every node it
    orphans, after the nodes replacing it have re-referenced its children.
    So each count is the store size plus the terminals the roots reach, with
    no walk; one walk before and one after the pass check this. A manager
    that breaks the precondition raises ValueError before any swap.

    Each variable moves down, then up, and is parked at the best position
    seen; ties go to the smallest position. Each sweep stops early on a lower
    bound (Drechsler, Guenther and Somenzi, IEEE TCAD 20(1), 2001). Moving
    down from position j it is the sizes of the levels above j, plus one per
    support variable at or below j, plus the terminals; the sweep stops once
    it reaches the best count. Moving up it is the sizes of the levels below
    j, plus one per support variable at or above j, plus the terminals; the
    sweep stops once it passes the best count. The support is the variables
    with a non-empty level, found once per pass; the sums are running totals,
    since a swap changes only its two levels.

    The sweeps skip what the bounds already decide. The levels below the
    start position are those the down sweep starts from, so the up sweep's
    bound there is known before any swap, and it only grows as the variable
    moves up. The walk back over the positions the down sweep measured, and
    the up sweep beyond it, run only when the start is not the top and that
    bound does not pass the best count; otherwise the up sweep would stop at
    or below the start, so the variable goes straight to its best position.
    A variable outside the support ties at every position, and no move of it
    changes the store, so it goes to position 0 with no sweep.

    If the node cap is hit while exploring, the pass for that variable stops
    and it is parked at the best position seen so far; the final count never
    exceeds the initial count. Whenever the cap is not reached, the order is
    exactly the one plain sifting (both directions in full) reaches.
    """
    if any(r > TRUE and r not in manager.protected for r in roots):
        raise ValueError("sifting needs every internal root protected")
    manager.collect_garbage()
    terminals = terminal_count(roots)
    if node_count(manager, roots) != len(manager.nodes) + terminals:
        raise ValueError("the manager protects diagrams beyond the roots")
    n = manager.n
    unique, order, var2level = manager.unique, manager.order, manager.var2level
    in_support = [0] * n
    for level in range(n):
        in_support[order[level]] = 1 if unique[level] else 0
    support = sum(in_support)

    def park(var: int, position: int) -> None:
        # the move always arrives, so its result is not read: every position
        # on the way was measured within the cap, or holds the same store
        rest = [v for v in order if v != var]
        manager.shuffle_to(rest[:position] + [var] + rest[position:])

    for var in range(n):
        # outside the support every position ties and no move changes the
        # store; a store already over its cap takes the sweeps, which stop there
        if not in_support[var] and len(manager.nodes) <= manager.node_cap:
            park(var, 0)
            continue
        pos = start = var2level[var]
        best = (len(manager.nodes) + terminals, pos)
        above = sum(len(unique[level]) for level in range(pos))
        support_down = support - sum(in_support[order[level]] for level in range(pos))
        # the up sweep's bound at the start, from levels the down sweep leaves be
        start_bound = (
            len(manager.nodes) - above - len(unique[pos])
            + support - support_down + in_support[var] + terminals
        )
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
        if not overflow and start > 0 and start_bound <= best[0]:
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
        park(var, best[1])
    assert node_count(manager, roots) == len(manager.nodes) + terminals
    return manager.current_order(), len(manager.nodes) + terminals


def transfer(manager: BddManager, roots):
    """Copy the diagrams under the roots into a fresh, collected manager.

    The copy has the manager's order and node cap, protects the roots and
    holds exactly the live nodes under them, each under its own id, so the
    roots keep their ids. The caller's manager is not touched. Raises
    NodeCapExceeded when the live nodes are over the cap.
    """
    dst = BddManager(manager.current_order(), node_cap=manager.node_cap)
    dst.nodes = {
        ref: list(manager.nodes[ref]) for ref in manager.reachable(roots) if ref > TRUE
    }
    if len(dst.nodes) > dst.node_cap:
        raise NodeCapExceeded(f"node cap {dst.node_cap} exceeded")
    dst.protected = list(roots)
    dst._next_id = manager._next_id
    dst.collect_garbage()  # rebuilds the unique table and every refcount
    return dst, list(roots)


class LevelTable:
    """Measured level sizes of one diagram, which the table owns and moves
    to measure more.

    A level's size depends only on its variable and the set of variables
    above it, and a collected store is canonical, so a size measured under
    one order holds under every order: `sizes[var]` maps a set of variables,
    as a mask with bit v for variable v, to the size of var's level under
    it. `make()` gives the diagram, `(manager, roots)`, held by no one else
    (a build, or a `transfer` copy), and the table collects it. It starts
    with the diagram's levels, and `shuffle_to` records the two levels of
    every swap the diagram makes. An order that does not fit (its store, or
    a swap of the move that measures it, over the node cap) prices
    `over_cap`, the `over_cap_price` of the diagram. Raises what `make`
    raises: NodeCapExceeded when it does not fit.
    """

    def __init__(self, make):
        self.make = make
        self.mgr, roots = make()
        self.mgr.collect_garbage()
        self.terminals = terminal_count(roots)
        self.over_cap = over_cap_price(self.mgr, roots)
        self.prices: dict[tuple[int, ...], int] = {}
        self.sizes: list[dict[int, int]] = [{} for _ in range(self.mgr.n)]
        above = 0
        for level, var in enumerate(self.mgr.order):
            self.sizes[var][above] = len(self.mgr.unique[level])
            above |= 1 << var

    def price_all(self, orders) -> list[int]:
        """The prices of `orders`, tuples, in their sequence. Each order not
        priced before is priced once, in lexicographic order, so consecutive
        ones share prefixes and moves; under the cap that sequence decides
        which moves pass it."""
        prices = self.prices
        for perm in sorted({p for p in orders if p not in prices}):
            prices[perm] = self.price(perm)
        return [prices[p] for p in orders]

    def price(self, perm) -> int:
        """The node count of the diagrams under `perm`, or `over_cap`.

        An order whose levels are all in the table is priced as their sum
        plus the terminals, with no move. Otherwise the diagram moves by
        `shuffle_to` to the nearest order that shows the missing levels: at
        each unmeasured position, perm's own variable, and between those
        positions, perm's variables in the diagram's current relative order.
        An order whose store is over node_cap prices `over_cap`. So does an
        order whose move passes the cap on the way; the move leaves the
        diagram over the cap, so the table makes and collects a fresh one.
        """
        sizes, cap = self.sizes, self.mgr.node_cap
        store, missing, above = 0, [], 0
        for pos, var in enumerate(perm):
            size = sizes[var].get(above)
            if size is None:
                missing.append((pos, above))
            else:
                store += size
            above |= 1 << var
        if missing:
            level = self.mgr.var2level.__getitem__
            target, start = [], 0
            for pos, _ in missing:
                target += sorted(perm[start:pos], key=level)
                target.append(perm[pos])
                start = pos + 1
            target += sorted(perm[start:], key=level)  # takes no swap
            if not self.mgr.shuffle_to(target, sizes):
                self.mgr = self.make()[0]
                self.mgr.collect_garbage()
                return self.over_cap
            store += sum(sizes[perm[pos]][above] for pos, above in missing)
        return store + self.terminals if store <= cap else self.over_cap


def ga_reorder(
    manager: BddManager,
    roots,
    population: int = 32,
    generations: int = 50,
    seed: int = 0,
    tournament: int = 3,
    mutation_prob: float = 0.2,
) -> tuple[VarOrder, int]:
    """Genetic search over variable orders with node-count fitness; returns
    the best order found and its count, the elite's fitness.

    Order crossover plus swap mutation, tournament selection, and elitism,
    so the result is never worse than the best seeded individual. The search
    is deterministic for a fixed seed. Fitness is the price of one
    `LevelTable` that owns a `transfer` copy of the caller's diagrams, so
    the caller's manager is untouched. An order over the node cap prices
    above every count that fits, so the elite fits. The caller's order comes
    back before any draw when it is the only order (fewer than two inputs),
    with its count, or when its live nodes are over the cap, with that price.

    The seeded population, and then each generation once it is bred in
    full, is priced by `LevelTable.price_all`, as `select_best_order`
    prices its candidates. Pricing draws nothing, and the tournaments read
    only the last generation's scores, so a generation bred in full before
    it is priced has the children that pricing each one as it is bred would
    give. Each generation sorts its keys once, and a tournament takes the
    least rank among its draws, so it compares ints, not keys.

    Each generation is bred in one loop with every draw written in place, as
    the stream of `rng.randrange`, `rng.sample(range(n), 2)`, `rng.random`
    and `rng.shuffle` would be, down to the generator's final state. A
    tournament index is CPython's `_randbelow(population)`: draws of
    `population.bit_length()` bits until one is below `population`. The
    crossover cut pair and the mutation pair are each `sample(range(n), 2)`:
    a first index below n, then a second one. In sample's pool form (up to 21
    inputs) the second is below n - 1, and stands for n - 1 when it equals
    the first; in its set form (above 21) it is below n, redrawn until it
    differs from the first. The mutation coin is `rng.random()`, and the
    seeded population comes from `rng.shuffle`.
    """
    for name, value, low in (
        ("population", population, 2),
        ("generations", generations, 0),
        ("tournament", tournament, 1),
    ):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    if not 0 <= mutation_prob <= 1:
        raise ValueError(f"mutation_prob must be in [0, 1], got {mutation_prob}")
    n = manager.n
    if n < 2:
        return manager.current_order(), node_count(manager, roots)
    try:
        table = LevelTable(partial(transfer, manager, roots))
    except NodeCapExceeded:
        return manager.current_order(), over_cap_price(manager, roots)
    rng = random.Random(seed)
    getrandbits, coin = rng.getrandbits, rng.random
    pop = [tuple(manager.order)]
    while len(pop) < population:
        perm = list(range(n))
        rng.shuffle(perm)
        pop.append(tuple(perm))
    keys = list(zip(table.price_all(pop), pop))
    elite = min(keys)
    bits, n_bits = population.bit_length(), n.bit_length()
    pool = n <= 21  # sample's pool form; its set form above
    second = n - 1 if pool else n  # the bound of a pair's second index
    second_bits = second.bit_length()
    for _ in range(generations):
        # a tournament's winner is its least key, the one at the least rank it
        # draws; bisect_left ranks equal keys, which are one order, alike
        ranked = sorted(keys)
        rank = [bisect_left(ranked, key) for key in keys]
        children = []
        for _ in range(population - 1):
            least = population
            for _ in range(tournament):
                i = getrandbits(bits)
                while i >= population:
                    i = getrandbits(bits)
                i = rank[i]
                if i < least:
                    least = i
            p1 = ranked[least][1]
            least = population
            for _ in range(tournament):
                i = getrandbits(bits)
                while i >= population:
                    i = getrandbits(bits)
                i = rank[i]
                if i < least:
                    least = i
            p2 = ranked[least][1]
            a = getrandbits(n_bits)
            while a >= n:
                a = getrandbits(n_bits)
            b = getrandbits(second_bits)
            while b >= second or b == a and not pool:
                b = getrandbits(second_bits)
            if b == a:  # pool form only
                b = n - 1
            if a > b:
                a, b = b, a
            middle = p1[a : b + 1]
            held = set(middle)
            child = [v for v in p2 if v not in held]
            child[a:a] = middle
            if coin() < mutation_prob:
                i = getrandbits(n_bits)
                while i >= n:
                    i = getrandbits(n_bits)
                j = getrandbits(second_bits)
                while j >= second or j == i and not pool:
                    j = getrandbits(second_bits)
                if j == i:
                    j = n - 1
                child[i], child[j] = child[j], child[i]
            children.append(tuple(child))
        keys = [elite, *zip(table.price_all(children), children)]
        elite = min(keys)
    return VarOrder(elite[1]), elite[0]


# -- truth-table oracle and exact order search ---------------------------------


def shannon_build(netlist: Netlist, order: VarOrder) -> tuple[BddManager, list[int]]:
    """Truth-table construction oracle under the given order: a fresh
    manager's store, built by Shannon expansion through `makenode` alone,
    never `apply`. Input v is evaluated on the exhaustive column of its
    level, so each table's high half is its top variable's 1-cofactor.
    """
    n = len(netlist.primary_inputs)
    columns = exhaustive_columns(n)
    tables = evaluate(netlist, [columns[order.position_of(v)] for v in range(n)], 1 << n)
    mgr = BddManager(order)

    def build(table: int, level: int) -> int:
        width = 1 << (n - level)
        if table == 0:
            return FALSE
        if table == (1 << width) - 1:
            return TRUE
        half = width >> 1
        low = build(table & ((1 << half) - 1), level + 1)
        return mgr.makenode(level, low, build(table >> half, level + 1))

    return mgr, [build(table, 0) for table in tables]


def shannon_count(netlist: Netlist, perm) -> int:
    """Node count of the netlist's diagram under perm, built by Shannon expansion."""
    mgr, roots = shannon_build(netlist, VarOrder.of(perm))
    return len(mgr.reachable(roots))


def brute_force_optimal_order(netlist: Netlist) -> tuple[VarOrder, int]:
    """Exact minimum over all orderings by the Friedman-Supowit subset DP.

    Placing the variables of a set I above variable x gives x one node per
    distinct cofactor, over the assignments to I, of the output functions
    that depends on x (outputs share nodes, so cofactors are pooled across
    them). The node count of an order is the sum of these widths plus the
    terminals the outputs reach, and the cheapest completion below each set
    is found once per set: O(n 2^n) cofactor sweeps instead of n!
    constructions. Among optimal orders the lexicographically first is
    returned. Enforced to at most EXACT_MAX_INPUTS inputs.
    """
    n = len(netlist.primary_inputs)
    if n > EXACT_MAX_INPUTS:
        raise ValueError(
            f"too many inputs for exact search: {n} > {EXACT_MAX_INPUTS}"
        )
    columns = exhaustive_columns(n)
    tables = evaluate(netlist, columns, 1 << n)
    full = (1 << n) - 1
    all_bits = (1 << (1 << n)) - 1
    zero_half = [all_bits ^ column for column in columns]
    # A cofactor over the set I keeps only the bits where every variable of I
    # is 0, so equal functions of the remaining variables compare equal.
    cofactors: list[set[int] | None] = [None] * (1 << n)
    cofactors[0] = set(tables)
    width = [[0] * n for _ in range(1 << n)]
    # by set size, so only two sizes of cofactor sets are held at a time
    for subset in sorted(range(full), key=int.bit_count):
        cofs = cofactors[subset]
        cofactors[subset] = None
        for x in range(n):
            if subset >> x & 1:
                continue
            step, mask = 1 << (n - 1 - x), zero_half[x]
            child = subset | 1 << x
            if cofactors[child] is None:
                below: set[int] = set()
                dependent = 0
                for g in cofs:
                    lo, hi = g & mask, g >> step & mask
                    below.add(lo)
                    below.add(hi)
                    dependent += lo != hi
                cofactors[child] = below
            else:
                dependent = sum((g & mask) != (g >> step & mask) for g in cofs)
            width[subset][x] = dependent
    terminals = len(cofactors[full])
    # rest[I]: fewest nodes on the levels below the variables of I, reached
    # by placing next_var[I] first; ties go to the smallest variable
    rest = [0] * (1 << n)
    next_var = [0] * (1 << n)
    for subset in range(full - 1, -1, -1):
        rest[subset], next_var[subset] = min(
            (width[subset][x] + rest[subset | 1 << x], x)
            for x in range(n)
            if not subset >> x & 1
        )
    perm: list[int] = []
    subset = 0
    while subset != full:
        perm.append(next_var[subset])
        subset |= 1 << perm[-1]
    count = rest[0] + terminals
    # independent cross-check against the Shannon construction oracle
    assert shannon_count(netlist, perm) == count
    return VarOrder(tuple(perm)), count


# -- label generation ----------------------------------------------------------


# Label makers in tie order: a label is the least count, and a tie goes to
# the earlier name. Each maps the shared identity-order diagram to (order,
# count) through the module globals; `ga` is ga_reorder's arguments after the
# roots. A maker reads that diagram or moves its own transfer copy, so none
# moves what another reads, and the makers may run in any order.
LABEL_MAKERS = {
    "natural": lambda mgr, roots, ga: (mgr.current_order(), node_count(mgr, roots)),
    "sifting": lambda mgr, roots, ga: sift_reorder(*transfer(mgr, roots)),
    "ga": lambda mgr, roots, ga: ga_reorder(mgr, roots, *ga),
}
HEURISTICS = tuple(LABEL_MAKERS)


@dataclass
class LabelReport:
    """By label maker name: each maker's node count, as its own search read
    it, its order and its ordering time."""

    counts: dict[str, int]
    orders: dict[str, VarOrder]
    seconds: dict[str, float]

    @property
    def winner(self) -> str:
        """The least count, ties to the earlier name in HEURISTICS."""
        return min(HEURISTICS, key=self.counts.__getitem__)

    @property
    def order(self) -> VarOrder:  # the winner's
        return self.orders[self.winner]


def generate_label_report(
    netlist: Netlist,
    seed: int = 0,
    node_cap: int = NODE_CAP,
    ga_population: int = 32,
    ga_generations: int = 50,
    ga_tournament: int = 3,
    ga_mutation: float = 0.2,
) -> LabelReport:
    """Run every label maker on one identity-order diagram and keep the best
    order: the least count, ties to the earlier name in HEURISTICS. A maker's
    ordering time is the identity build plus its own search; natural's is 0."""
    ga = (ga_population, ga_generations, seed, ga_tournament, ga_mutation)
    identity = VarOrder.identity(len(netlist.primary_inputs))
    start = time.perf_counter()
    try:
        mgr, roots = build_from_netlist(netlist, identity, node_cap)
    except NodeCapExceeded as exc:
        raise NodeCapExceeded("the identity-order diagram exceeded the node cap") from exc
    build = time.perf_counter() - start
    orders, counts, seconds = {}, {}, {}
    for name, make in LABEL_MAKERS.items():
        start = time.perf_counter()
        orders[name], counts[name] = make(mgr, roots, ga)
        seconds[name] = build + time.perf_counter() - start
    seconds["natural"] = 0.0
    return LabelReport(counts, orders, seconds)
