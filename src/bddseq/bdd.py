"""Hash-consed ROBDD engine with reordering.

Levels index positions in the variable order; the variable tested at a level
is `order.permutation[level]`. Terminals live at level n. Node counts include
the terminals and count nodes shared between output roots once.

Reordering has one mechanism, the standard in-place adjacent level swap:
nodes at the upper level that depend on the lower variable are rewritten in
place (their identity, and hence all parent references, survive), independent
nodes slide down one level, and lower-level nodes that are still referenced
from outside the swapped band slide up. Reference counts track parent and
root references. `check()` audits every refcount.

Garbage has one rule: a collected store holds exactly the live nodes, and a
swap keeps it that way, since it frees every node it orphans. Construction
leaves dead nodes behind for the mark-and-sweep collector, so every reorder
(sifting, the genetic fitness, the search's re-rank, label making) collects
once before its first swap and then reads each node count from the store
size instead of walking the diagrams. `shuffle_to` moves a diagram to a whole
new order, with the node cap checked on every swap. `transfer` copies the
live nodes under some roots into a fresh, collected manager with the same
order; a new order is reached from there by swaps.

Sifting reaches the orders plain sifting does with about half the swaps, by
a lower bound. A level's size depends only on its variable and the set of
variables above it, so while a variable moves down from position j the
levels above j keep their sizes, and every support variable (one with a
non-empty level, in any order) keeps at least one node; the same holds
upward for the levels below j. A sweep stops once that bound cannot beat
the best count seen.

Exact orders come from the Friedman-Supowit dynamic program over subsets of
variables, run on the output truth tables (`brute_force_optimal_order`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .blif import Netlist, evaluate, exhaustive_columns

FALSE = 0
TRUE = 1
EXACT_MAX_INPUTS = 12  # largest input count the exact order search accepts

_AND = "and"
_OR = "or"
_NOT = "not"


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

    def inverse(self) -> "VarOrder":
        inv = [0] * len(self.permutation)
        for pos, var in enumerate(self.permutation):
            inv[var] = pos
        return VarOrder(tuple(inv))

    @staticmethod
    def identity(n: int) -> "VarOrder":
        return VarOrder(tuple(range(n)))

    @staticmethod
    def of(seq) -> "VarOrder":
        return VarOrder(tuple(int(v) for v in seq))


class BddManager:
    """Mutable ROBDD store for one fixed set of variables."""

    def __init__(self, order: VarOrder, node_cap: int = 2_000_000):
        self.n = len(order)
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

    def level_of(self, ref: int) -> int:
        if ref <= TRUE:
            return self.n
        return self.nodes[ref][0]

    def low(self, ref: int) -> int:
        return self.nodes[ref][1]

    def high(self, ref: int) -> int:
        return self.nodes[ref][2]

    def var_of(self, ref: int) -> int:
        return self.order[self.nodes[ref][0]]

    def _incref(self, ref: int) -> None:
        if ref > TRUE:
            self.nodes[ref][3] += 1

    def _decref(self, ref: int) -> None:
        if ref > TRUE:
            self.nodes[ref][3] -= 1

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
        self._incref(low)
        self._incref(high)
        self.unique[level][(low, high)] = nid
        return nid

    def var(self, v: int) -> int:
        """The single-variable function for variable index v."""
        return self.makenode(self.var2level[v], FALSE, TRUE)

    def protect(self, ref: int) -> None:
        self.protected.append(ref)
        self._incref(ref)

    def unprotect(self, ref: int) -> None:
        self.protected.remove(ref)
        self._decref(ref)

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
        if op == _AND:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
            if f == g:
                return f
        elif op == _OR:
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == g:
                return f
        else:
            raise ValueError(f"unknown op {op}")
        if f > g:
            f, g = g, f  # both ops are commutative
        key = (op, f, g)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        lf, lg = self.level_of(f), self.level_of(g)
        level = min(lf, lg)
        f0, f1 = (self.low(f), self.high(f)) if lf == level else (f, f)
        g0, g1 = (self.low(g), self.high(g)) if lg == level else (g, g)
        out = self.makenode(
            level, self.apply(op, f0, g0), self.apply(op, f1, g1)
        )
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

    def signature(self, roots) -> tuple:
        """Canonical structural fingerprint of the diagrams under the roots."""
        index: dict[int, int] = {}
        out: list[tuple] = []

        def visit(ref: int) -> int:
            if ref in index:
                return index[ref]
            if ref <= TRUE:
                index[ref] = -1 - ref  # -1 for FALSE, -2 for TRUE
                return index[ref]
            rec = self.nodes[ref]
            lo = visit(rec[1])
            hi = visit(rec[2])
            idx = len(out)
            index[ref] = idx
            out.append((rec[0], lo, hi))
            return idx

        root_ids = tuple(visit(r) for r in roots)
        return (tuple(out), root_ids)

    def check(self) -> None:
        """Assert reduction and ordering invariants over the whole store."""
        for level, table in enumerate(self.unique):
            for (low, high), nid in table.items():
                rec = self.nodes[nid]
                assert rec[0] == level and rec[1] == low and rec[2] == high
                assert low != high, "redundant node"
                assert self.level_of(low) > level and self.level_of(high) > level
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

    def collect_garbage(self) -> int:
        """Mark-and-sweep from the protected set; rebuilds the unique table."""
        live = self.reachable(self.protected)
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

    def maybe_collect(self) -> None:
        if len(self.nodes) >= self.gc_threshold:
            self.collect_garbage()

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

    def move_var_to(self, var: int, position: int) -> None:
        while self.var2level[var] < position:
            self.swap_adjacent_levels(self.var2level[var])
        while self.var2level[var] > position:
            self.swap_adjacent_levels(self.var2level[var] - 1)

    def shuffle_to(self, permutation) -> bool:
        """Reorder to `permutation` in place by adjacent swaps.

        As CUDD's `Cudd_ShuffleHeap` does, each variable in turn, from the
        top, moves up to its position, so positions that already hold their
        variable cost no swap. The cap holds on every swap: the move stops
        as soon as the store passes `node_cap`, leaves the manager at that
        intermediate (valid) order and returns False; True when it arrives.
        No collection is needed on the way: a swap frees what it orphans, so
        a collected store stays exactly the live nodes.
        """
        if len(permutation) != self.n:
            raise ValueError("order does not permute the manager's variables")
        for pos, var in enumerate(permutation):
            while self.var2level[var] > pos:
                self.swap_adjacent_levels(self.var2level[var] - 1)
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


def build_from_netlist(
    netlist: Netlist, order: VarOrder, node_cap: int = 2_000_000
) -> tuple[BddManager, list[int]]:
    """Apply-based construction of all primary-output functions."""
    n = len(netlist.primary_inputs)
    if len(order) != n:
        raise ValueError("order does not permute the primary inputs")
    mgr = BddManager(order, node_cap=node_cap)
    var_index = {name: i for i, name in enumerate(netlist.primary_inputs)}
    refs: dict[str, int] = {}
    for name, idx in var_index.items():
        refs[name] = mgr.var(idx)
        mgr.protect(refs[name])
    for gate in netlist.topo_gates():
        mgr.maybe_collect()
        if not gate.cover:
            result = FALSE
        else:
            acc = FALSE
            for cube in gate.cover:
                term = TRUE
                for sig, ch in zip(gate.inputs, cube.pattern):
                    if ch == "-":
                        continue
                    lit = refs[sig] if ch == "1" else mgr.apply_not(refs[sig])
                    term = mgr.apply(_AND, term, lit)
                acc = mgr.apply(_OR, acc, term)
            result = acc if gate.polarity == 1 else mgr.apply_not(acc)
        refs[gate.output] = result
        mgr.protect(result)
    roots = []
    for po in netlist.primary_outputs:
        roots.append(refs[po])
        mgr.protect(refs[po])
    for ref in list(refs.values()):
        mgr.unprotect(ref)
    return mgr, roots


def sift_reorder(manager: BddManager, roots) -> VarOrder:
    """Rudell-style sifting: park each variable at its best position.

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
        manager.move_var_to(var, best[1])
    assert node_count(manager, roots) == len(manager.nodes) + terminals
    return manager.current_order()


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


def ga_reorder(
    manager: BddManager,
    roots,
    population: int = 32,
    generations: int = 50,
    seed: int = 0,
    tournament: int = 3,
    mutation_prob: float = 0.2,
) -> VarOrder:
    """Genetic search over variable orders with node-count fitness.

    Order crossover plus swap mutation, tournament selection, and elitism,
    so the result is never worse than the best seeded individual. The search
    is deterministic for a fixed seed. Fitness is scored on one private,
    collected `transfer` copy of the diagrams, moved to each new order by
    adjacent level swaps (`shuffle_to`), so each count is the store size; the
    caller's manager is not touched. An order whose copy passes the node cap
    on any swap scores node_cap + 1.
    """
    if population < 2:
        raise ValueError("population must be at least 2")
    n = manager.n
    rng = random.Random(seed)
    fitness_cache: dict[tuple[int, ...], int] = {}
    try:
        work, work_roots = transfer(manager, roots)
    except NodeCapExceeded:
        work = None  # even the caller's own order outgrows the cap
    else:
        terminals = terminal_count(work_roots)

    def fitness(perm: tuple[int, ...]) -> int:
        hit = fitness_cache.get(perm)
        if hit is not None:
            return hit
        cost = manager.node_cap + 1
        if work is not None and work.shuffle_to(perm):
            cost = len(work.nodes) + terminals
        fitness_cache[perm] = cost
        return cost

    def order_crossover(p1, p2):
        a, b = sorted(rng.sample(range(n), 2))
        child = [None] * n
        child[a : b + 1] = p1[a : b + 1]
        held = set(p1[a : b + 1])
        fill = [v for v in p2 if v not in held]
        it = iter(fill)
        for i in range(n):
            if child[i] is None:
                child[i] = next(it)
        return tuple(child)

    def mutate(perm):
        if rng.random() < mutation_prob and n >= 2:
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

    elite = best_of(pop)
    for _ in range(generations):
        nxt = [elite]
        while len(nxt) < population:
            p1 = best_of([pop[rng.randrange(population)] for _ in range(tournament)])
            p2 = best_of([pop[rng.randrange(population)] for _ in range(tournament)])
            nxt.append(mutate(order_crossover(p1, p2)))
        pop = nxt
        elite = best_of([elite, best_of(pop)])
    return VarOrder(elite)


# -- truth-table oracle and exact order search ---------------------------------


def output_truth_tables(netlist: Netlist) -> tuple[int, list[int]]:
    """Per-output truth tables as bitmasks.

    Bit i of a table is the output under the assignment whose bit for
    variable j is (i >> (n-1-j)) & 1, i.e. variable 0 is most significant.
    """
    n = len(netlist.primary_inputs)
    return n, list(evaluate(netlist, exhaustive_columns(n), 1 << n))


class TruthTableBdd:
    """Shannon-expansion construction from explicit truth tables.

    Independent of the apply-based engine; used as a structural oracle and to
    cross-check the count of the exact order search. Its `nodes` records are
    (level, low, high), the layout the manager's `reachable` and `signature`
    read, so the oracle shares them.
    """

    def __init__(self, n: int):
        self.n = n
        self.unique: dict[tuple[int, int, int], int] = {}
        self.nodes: dict[int, tuple[int, int, int]] = {}
        self._next = 2

    def build(self, table: int, level: int = 0) -> int:
        width = 1 << (self.n - level)
        if level == self.n:
            return TRUE if table & 1 else FALSE
        if table == 0:
            return FALSE
        if table == (1 << width) - 1:
            return TRUE
        half = width >> 1
        hi_part = table >> half
        lo_part = table & ((1 << half) - 1)
        lo = self.build(lo_part, level + 1)
        hi = self.build(hi_part, level + 1)
        if lo == hi:
            return lo
        key = (level, lo, hi)
        hit = self.unique.get(key)
        if hit is not None:
            return hit
        nid = self._next
        self._next += 1
        self.unique[key] = nid
        self.nodes[nid] = key
        return nid

    reachable = BddManager.reachable
    signature = BddManager.signature


def shannon_build(netlist: Netlist, order: VarOrder):
    """Truth-table construction oracle under the given order.

    The netlist is evaluated with input v on the exhaustive column of its
    level, so each output table is indexed level-major, as `build` splits it.
    """
    n = len(netlist.primary_inputs)
    columns = exhaustive_columns(n)
    tables = evaluate(netlist, [columns[order.position_of(v)] for v in range(n)], 1 << n)
    bdd = TruthTableBdd(n)
    return bdd, [bdd.build(t) for t in tables]


def shannon_count(netlist: Netlist, perm) -> int:
    """Node count of the netlist's diagram under perm, built by Shannon expansion."""
    bdd, roots = shannon_build(netlist, VarOrder.of(perm))
    return len(bdd.reachable(roots))


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
    _, tables = output_truth_tables(netlist)
    full = (1 << n) - 1
    all_bits = (1 << (1 << n)) - 1
    zero_half = [all_bits ^ column for column in exhaustive_columns(n)]
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


@dataclass
class LabelReport:
    order: VarOrder
    winner: str
    counts: dict[str, int]


def generate_label_report(
    netlist: Netlist,
    seed: int = 0,
    node_cap: int = 2_000_000,
    ga_population: int = 32,
    ga_generations: int = 50,
    ga_tournament: int = 3,
    ga_mutation: float = 0.2,
) -> LabelReport:
    """Run the heuristic set {natural, sifting, GA} and keep the best order.

    One identity-order diagram serves all three: the natural count and the
    GA read it (the GA scores orders on a private copy), then sifting
    reorders it in place, and the sifted diagram moves on to the GA's order
    by adjacent swaps, which counts it from the store size. A GA order that
    passes the node cap on the way gets no entry. Ties go to the earlier of
    natural, sifting, GA.
    """
    n = len(netlist.primary_inputs)
    try:
        mgr, roots = build_from_netlist(netlist, VarOrder.identity(n), node_cap)
    except NodeCapExceeded as exc:
        raise NodeCapExceeded("all labeling heuristics exceeded the node cap") from exc
    found = {"natural": (VarOrder.identity(n), node_count(mgr, roots))}
    ga_order = ga_reorder(
        mgr,
        roots,
        population=ga_population,
        generations=ga_generations,
        seed=seed,
        tournament=ga_tournament,
        mutation_prob=ga_mutation,
    )
    found["sifting"] = (sift_reorder(mgr, roots), node_count(mgr, roots))
    if mgr.shuffle_to(ga_order.permutation):  # sifting left the store collected
        found["ga"] = (ga_order, len(mgr.nodes) + terminal_count(roots))
    winner = min(found, key=lambda name: found[name][1])
    return LabelReport(
        order=found[winner][0],
        winner=winner,
        counts={name: count for name, (_, count) in found.items()},
    )
