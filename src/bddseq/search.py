"""Sequence decoding over a trained model: greedy, beam, and grouped
diversity-promoting beam search, and the re-rank of its candidates by BDD size.

The diverse search ranks one shared pool of beams. At every step the groups
act in a fixed order on the pool's candidate continuations: group i lowers
the raw pointer score of any token that an earlier group has already taken
at this step by alpha times the span (max - min) of the beam's raw scores
before the log-softmax, as diverse beam search subtracts its diversity term,
then claims its group-quota of best remaining (beam, token) continuations.
The penalty lowers a claimed token's score whatever the sign of its logit,
and it is shift invariant as the log-softmax is. Claimed
continuations are excluded from later groups, so with alpha = 0 the groups
jointly reproduce exactly the plain width-m beam search, and a single
one-beam group is greedy decoding.

The pool advances in lockstep: each position is one decoder step over all
B beams (`_advance`, a (B, H) LSTM step to (B, P) raw scores on bare
arrays). `diverse_beam_search` and `_greedy` each run whole inside one
`no_grad()` block, so no step builds a Tensor or a VJP. Every pool names
each row's graph in the encoded batch (`Pool.graphs`), and `_advance`
gathers each row's keys and input embeddings by it; the beams of a search
all name its one graph. The penalised scores depend only on the set of
tokens claimed so far at the step, so the (B, P) scores are computed once
per change of that set: a group that follows a group which claimed no new
token goes on with the same scores. A token's penalty is subtracted from
its column once, when it is first claimed.

Each step keeps one mask row, `base`, of B * P entries: a beam's score on
each continuation still open to it, and -inf on every visited input. A
ranking is `base` plus the flattened log-softmax of the penalised scores,
with no mask written per ranking: an open entry gets the bits of score plus
log-probability, as floating-point addition commutes, and -inf plus a
finite value is -inf. Each claim takes the first maximum of the ranking and
sets that entry to -inf in the ranking and in `base`, so later rankings
keep it out too. That is the next entry of a stable sort of the pool with
the taken ones masked out, so this claims exactly what a fresh ranking per
group would.

The claim loop only claims. `_trace` then writes the step's trace records,
claim i as beam i of group i // quota: a group claims fewer than its quota
only once every continuation is taken, and after that no group claims.

The last position takes no decoder step. There each beam has one unvisited
input, and its log-probability is exactly 0.0: it is the row's maximum, so
its shifted score is 0.0, and every visited score lies more than 745 below
it, so each other `exp` is at most 5e-324 and the row sums to 1.0. A
visited score carries `MASK_VALUE` (-1e9), and the penalty moves a score by
at most one span, so this holds while every beam's span of raw scores is
below (1e9 - 745) / 2. A pointer score is `ptr.v` times a tanh, so a
`ptr.v` of 1-norm below (1e9 - 745) / 4, just under 2.5e8, guarantees it.
`diverse_beam_search` therefore runs `_advance` for positions 0 to P - 2
only, and gives each beam its last input at the beam's own score. `_trace`
writes that step's claims by score, ties to the lower beam, as a ranking
would make them, so the trace is as it would be with the step. `_greedy`
does the same at its final step, where every row left has one input left.

Greedy decoding is batched: `greedy_decode` of an `encode`d batch of graphs
(one disjoint union) runs one pool with a row per graph, padded inputs
masked, and gives one order per graph. A single circuit is a batch of one,
so it takes the same path and gets the bits of the one-beam, one-group
search. Stacked rows change the bits of the matrix products, so a graph
decoded in a larger batch may score differently in the last bits.

`select_best_order` prices every candidate, as the GA prices its orders, on
one `bdd.LevelTable` that owns (and moves, with no copy) the build of the
lexicographically first candidate whose build fits the node cap; a
candidate that does not fit prices above every one that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import model as M
from .autodiff import log_softmax, no_grad
from .bdd import NODE_CAP, LevelTable, NodeCapExceeded, VarOrder, build_from_netlist
from .blif import Netlist
from .graph import CircuitGraph


@dataclass
class Pool:
    """B beams (partial sequences) decoded in lockstep, one row each."""

    tokens: list[tuple[int, ...]]
    scores: np.ndarray  # (B,) summed log-probabilities
    visited: np.ndarray  # (B, P) bool
    hidden: np.ndarray  # (B, H)
    cell: np.ndarray  # (B, H)
    graphs: np.ndarray  # (B,) each row's graph in the encoded batch


# mode -> (beam_width, groups); alpha comes from the run configuration
MODES = {"efficiency": (1, 1), "balance": (20, 10), "quality": (50, 25)}


@dataclass
class SearchConfig:
    beam_width: int = 20
    groups: int = 10
    alpha: float = 0.25
    trace: list | None = None

    def __post_init__(self):
        if self.beam_width < 1 or self.groups < 1:
            raise ValueError(
                f"beam width {self.beam_width} and groups {self.groups} must be at least 1"
            )
        if self.beam_width % self.groups != 0:
            raise ValueError(f"groups {self.groups} must divide beam width {self.beam_width}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def encode(graphs: CircuitGraph | list[CircuitGraph], params: M.ModelParams) -> M.Encoded:
    """Run the encoder once over a graph, or over a list of graphs as one
    disjoint union; every search over them can share the result."""
    with no_grad():
        return M.batch_layout(graphs if isinstance(graphs, list) else [graphs], params)


def _advance(pool: Pool, encoded: M.Encoded, params: M.ModelParams):
    """(B, P) raw pointer scores for every beam of the pool, plus the
    advanced hidden and cell states. Each row reads its own graph's keys and
    input embeddings. The caller runs it under `no_grad()`, so it computes
    on bare arrays."""
    keys, starts = encoded.keys[pool.graphs], encoded.starts[pool.graphs]
    if pool.tokens[0]:
        prev = encoded.pi_embs[starts + np.array([t[-1] for t in pool.tokens])]
    else:
        prev = params["dec.start"]  # only start beams have no tokens
    raw, hidden, cell = M.decoder_advance(pool.hidden, pool.cell, prev, keys, params)
    return raw.reshape(len(pool.tokens), -1), hidden, cell


def _span(raw: np.ndarray) -> np.ndarray:
    """Each row's span (max - min) of raw scores, (B, 1)."""
    return raw.max(axis=1, keepdims=True) - raw.min(axis=1, keepdims=True)


def _trace(config: SearchConfig, step: int, quota: int, tokens, scores) -> None:
    """Write a step's trace records: claim i is beam i of group i // quota."""
    if config.trace is not None:
        config.trace.extend(
            {"step": step, "group": i // quota, "beam": i, "token": token, "score": score}
            for i, (token, score) in enumerate(zip(tokens, scores))
        )


@no_grad()
def _greedy(encoded: M.Encoded, params: M.ModelParams) -> list[tuple[VarOrder, float]]:
    """Argmax decoding of every graph of the batch in lockstep, one pool row
    per graph: a row takes the first maximum of its score plus the
    log-softmax of its masked raw scores, as `diverse_beam_search` ranks,
    with visited and padded inputs masked, and leaves the pool once its
    graph's inputs are all ordered. At the last step every row left has one
    input left, which it takes with no decoder step, as the beam search does. Returns each
    graph's order and summed log-probability.
    """
    sizes = encoded.real.sum(axis=1)
    tokens: list[tuple[int, ...]] = [()] * len(sizes)  # by graph
    scores = np.zeros(len(sizes))
    rows = np.flatnonzero(sizes)  # the pool's graphs: those with inputs left
    visited = ~encoded.real[rows]  # padded inputs count as visited
    hidden = cell = np.zeros((len(rows), params.config.hidden))
    for step in range(encoded.real.shape[1] - 1):
        pool = Pool([tokens[g] for g in rows], scores[rows], visited, hidden, cell, rows)
        raw, hidden, cell = _advance(pool, encoded, params)
        flat = pool.scores[:, None] + log_softmax(raw + np.where(visited, M.MASK_VALUE, 0.0))
        flat[visited] = -np.inf
        cols = flat.argmax(axis=1)  # each row's first maximum
        scores[rows] = flat[np.arange(len(rows)), cols]
        visited[np.arange(len(rows)), cols] = True
        for g, token in zip(rows.tolist(), cols.tolist()):
            tokens[g] += (token,)
        live = sizes[rows] > step + 1
        if not live.all():  # a graph's inputs are all ordered: its row leaves
            rows, visited, hidden, cell = rows[live], visited[live], hidden[live], cell[live]
    if len(rows):  # the rows of the largest graphs, one input left each
        for g, token in zip(rows.tolist(), visited.argmin(axis=1).tolist()):
            tokens[g] += (token,)
    return [(VarOrder(t), float(score)) for t, score in zip(tokens, scores)]


def greedy_decode(
    graph: CircuitGraph | M.Encoded, params: M.ModelParams
) -> VarOrder | list[VarOrder]:
    """Argmax decoding. A graph is encoded as a batch of one and gives its
    VarOrder; an `encode`d batch gives one VarOrder per graph."""
    if isinstance(graph, M.Encoded):
        return [order for order, _ in _greedy(graph, params)]
    return _greedy(encode(graph, params), params)[0][0]


@no_grad()
def diverse_beam_search(
    graph: CircuitGraph | M.Encoded, params: M.ModelParams, config: SearchConfig
) -> list[tuple[VarOrder, float]]:
    """Grouped beam search over one shared pool; see the module docstring.

    Returns up to beam_width complete orderings sorted by score descending
    (fewer only when the number of permutations is smaller). `graph` may be
    an `encode`d graph, so that several searches share one encoding.
    """
    encoded = graph if isinstance(graph, M.Encoded) else encode(graph, params)
    if len(encoded.starts) != 1:
        raise ValueError(f"beam search decodes one graph, not {len(encoded.starts)}")
    num_pis = encoded.pi_embs.shape[0]
    if not num_pis:
        return [(VarOrder(()), 0.0)]
    quota = config.beam_width // config.groups
    visited, hidden = np.zeros((1, num_pis), dtype=bool), np.zeros((1, params.config.hidden))
    pool = Pool([()], np.zeros(1), visited, hidden, hidden, np.zeros(1, dtype=np.int64))
    for step in range(num_pis - 1):
        raw, hidden, cell = _advance(pool, encoded, params)
        # the mask is added before the penalty: an unvisited entry gets the
        # same bits either way, and visited ones are -inf in base
        penalized = raw + np.where(pool.visited, M.MASK_VALUE, 0.0)
        penalty = config.alpha * _span(raw)[:, 0]  # (B,), subtracted once per claimed token
        base = np.where(pool.visited, -np.inf, pool.scores[:, None]).ravel()  # the mask row
        claimed: set[int] = set()  # tokens taken at this step
        stale = True  # claimed has gained a token since the last ranking
        taken: list[int] = []  # flat (beam, token) indices, in claim order
        scores: list[float] = []
        for _ in range(config.groups):
            if stale:
                flat = base + log_softmax(penalized).ravel()
                stale = False
            for _ in range(quota):
                k = int(flat.argmax())  # the first maximum: ties go to (beam, token) order
                score = flat.item(k)
                if score == -np.inf:
                    break  # fewer continuations left than the quota
                flat[k] = base[k] = -np.inf
                token = k % num_pis
                if token not in claimed:
                    claimed.add(token)
                    penalized[:, token] -= penalty
                    stale = True
                taken.append(k)
                scores.append(score)
        rows, cols = np.divmod(np.array(taken), num_pis)
        _trace(config, step, quota, cols.tolist(), scores)
        visited = pool.visited[rows]
        visited[np.arange(len(rows)), cols] = True
        tokens = [pool.tokens[b] + (t,) for b, t in zip(rows.tolist(), cols.tolist())]
        pool = Pool(tokens, np.array(scores), visited, hidden[rows], cell[rows], pool.graphs[rows])
    # the last position: each beam's one unvisited input has log-probability
    # 0.0 (see the module docstring), so no decoder step runs, and the claims
    # go by score, ties to the lower beam, as a ranking would make them
    scores = pool.scores.tolist()
    tokens = [t + (last,) for t, last in zip(pool.tokens, pool.visited.argmin(axis=1).tolist())]
    claims = sorted(range(len(tokens)), key=lambda b: -scores[b])
    _trace(config, num_pis - 1, quota, [tokens[b][-1] for b in claims], [scores[b] for b in claims])
    ranked = sorted(zip(scores, tokens), key=lambda c: (-c[0], c[1]))
    return [(VarOrder(order), score) for score, order in ranked]


def select_best_order(
    candidates, netlist: Netlist, node_cap: int = NODE_CAP
) -> VarOrder:
    """Re-rank candidate orders by actual BDD size, on one `LevelTable`.

    The lexicographically first candidate whose build fits the node cap is
    built, and `LevelTable.price_all` prices every candidate on one table
    that owns and moves that build. Candidates must arrive sorted by model
    score descending: the winner is the least (price, original index), so on
    node-count ties the earlier (higher-scoring) candidate wins. The built
    candidate fits, and one that does not prices above it, so the winner
    fits; NodeCapExceeded is raised when no candidate builds within the cap.
    """
    if not candidates:
        raise ValueError("no candidate orders")
    orders = [c if isinstance(c, VarOrder) else VarOrder.of(c) for c in candidates]
    perms = [order.permutation for order in orders]
    for p in sorted(set(perms)):
        try:
            table = LevelTable(partial(build_from_netlist, netlist, VarOrder(p), node_cap=node_cap))
            break
        except NodeCapExceeded:
            continue
    else:
        raise NodeCapExceeded(f"all {len(orders)} candidate orders exceeded the node cap")
    prices = table.price_all(perms)
    return orders[min(range(len(orders)), key=prices.__getitem__)]
