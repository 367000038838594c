import itertools
import math

import numpy as np
import pytest

from bddseq import model as M
from bddseq import search
from bddseq.bdd import VarOrder, build_from_netlist, node_count
from bddseq.blif import parse_blif
from bddseq.graph import FeatureConfig, blif2graph
from bddseq.search import SearchConfig, beam_search, diverse_beam_search, greedy_decode

TRI_SRC = """\
.model tri
.inputs a b c
.outputs o
.names a b t
11 1
.names t c o
1- 1
-1 1
.end
"""


@pytest.fixture
def tri_graph():
    return blif2graph(parse_blif(TRI_SRC), FeatureConfig(max_table_len=4))


@pytest.fixture
def tri_params(tri_graph):
    cfg = M.ModelConfig(
        feature_dim=tri_graph.features.shape[1], hidden=8, layers=2, heads=2
    )
    params = M.init_params(cfg, seed=3)
    M.perturb_params(params, 0.3, seed=4)
    return params


def make_toy_model(seed, n_pis=4, n_gates=3):
    import random

    from bddseq.gen import random_cover_netlist

    r = random.Random(seed)
    net = random_cover_netlist(r, n_pis, n_gates, max_arity=3, n_outputs=1)
    graph = blif2graph(net, FeatureConfig(max_table_len=8))
    cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2)
    params = M.init_params(cfg, seed=seed)
    M.perturb_params(params, 0.5, seed=seed + 1)
    return net, graph, params


def test_greedy_single_pi():
    net = parse_blif(".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end")
    graph = blif2graph(net, FeatureConfig(max_table_len=4))
    cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2)
    params = M.init_params(cfg, seed=0)
    assert greedy_decode(graph, params) == VarOrder((0,))


def test_greedy_emits_permutation(tri_graph, tri_params):
    order = greedy_decode(tri_graph, tri_params)
    assert sorted(order.permutation) == [0, 1, 2]


def test_greedy_score_is_sum_of_log_probs(tri_graph, tri_params):
    results = diverse_beam_search(
        tri_graph, tri_params, SearchConfig(beam_width=1, groups=1, alpha=0.0)
    )
    order, score = results[0]
    lps, _ = M.forward_teacher_forced([(tri_graph, order)], tri_params)
    assert score == pytest.approx(lps.data.sum(), abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_width_one_equals_greedy(seed):
    _, graph, params = make_toy_model(seed)
    greedy = greedy_decode(graph, params)
    results = diverse_beam_search(
        graph, params, SearchConfig(beam_width=1, groups=1, alpha=0.7)
    )
    assert len(results) == 1
    assert results[0][0] == greedy


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("width", [1, 3, 6])
def test_pool_scores_equal_teacher_forced(seed, width):
    # every beam of the batched pool scores what training assigns its order
    _, graph, params = make_toy_model(seed)
    results = diverse_beam_search(
        graph, params, SearchConfig(beam_width=width, groups=1, alpha=0.0)
    )
    assert len(results) == width
    lps, _ = M.forward_teacher_forced([(graph, order) for order, _ in results], params)
    for (_, score), column in zip(results, lps.data.T):
        assert score == pytest.approx(column.sum(), abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("groups", [2, 4])
def test_alpha_zero_equals_plain_beam(seed, groups):
    _, graph, params = make_toy_model(seed)
    m = 4
    plain = beam_search(graph, params, m)
    grouped = diverse_beam_search(
        graph, params, SearchConfig(beam_width=m, groups=groups, alpha=0.0)
    )
    assert [o.permutation for o, _ in plain] == [o.permutation for o, _ in grouped]
    assert [s for _, s in plain] == pytest.approx([s for _, s in grouped])


def test_all_outputs_are_permutations(tri_graph, tri_params):
    results = diverse_beam_search(
        tri_graph, tri_params, SearchConfig(beam_width=6, groups=3, alpha=0.4)
    )
    assert len(results) == 6  # 3! == 6 permutations exist
    for order, _ in results:
        assert sorted(order.permutation) == [0, 1, 2]
    assert len({o.permutation for o, _ in results}) == 6


def test_group_kept_scores_non_increasing(tri_graph, tri_params):
    trace = []
    diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=6, groups=2, alpha=0.3, trace=trace),
    )
    for (step, group), entries in itertools.groupby(
        trace, key=lambda e: (e["step"], e["group"])
    ):
        scores = [e["score"] for e in entries]
        assert scores == sorted(scores, reverse=True)


def test_first_token_diversity_non_decreasing_in_alpha(tri_graph, tri_params):
    counts = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        results = diverse_beam_search(
            tri_graph, tri_params, SearchConfig(beam_width=4, groups=2, alpha=alpha)
        )
        counts.append(len({o.permutation[0] for o, _ in results}))
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_group_width_divisibility_checked():
    with pytest.raises(ValueError, match="divide"):
        SearchConfig(beam_width=5, groups=2)


def test_mode_presets():
    balance = SearchConfig.balance()
    assert (balance.beam_width, balance.groups, balance.alpha) == (20, 10, 0.25)
    quality = SearchConfig.quality()
    assert (quality.beam_width, quality.groups) == (50, 25)
    assert SearchConfig.efficiency().beam_width == 1


# -- hand-traced execution against scripted pointer scores ----------------------

SCRIPT = {
    (): [2.0, 1.0, 0.0],
    (0,): [9.9, 3.0, 1.0],
    (1,): [2.0, 9.9, 2.5],
    (2,): [1.0, 4.0, 9.9],
    (0, 1): [9.9, 9.9, 0.7],
    (0, 2): [9.9, 0.3, 9.9],
    (1, 0): [9.9, 9.9, 0.1],
    (1, 2): [0.2, 9.9, 9.9],
    (2, 0): [9.9, 0.4, 9.9],
    (2, 1): [0.6, 9.9, 9.9],
}


def scripted_advance(pool, encoded, params):
    raw = np.stack([np.array(SCRIPT[t], dtype=np.float64) for t in pool.tokens])
    return raw, pool.hidden, pool.cell


def logsumexp(values):
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def test_scripted_brute_force_ranking(tri_graph, tri_params, monkeypatch):
    monkeypatch.setattr(search, "_advance", scripted_advance)
    results = diverse_beam_search(
        tri_graph, tri_params, SearchConfig(beam_width=6, groups=1, alpha=0.0)
    )

    def sequence_score(perm):
        total = 0.0
        for t in range(3):
            remaining = [v for v in range(3) if v not in perm[:t]]
            raw = SCRIPT[tuple(perm[:t])]
            masked = [raw[v] for v in remaining]
            total += raw[perm[t]] - logsumexp(masked)
        return total

    expected = sorted(
        itertools.permutations(range(3)), key=lambda p: (-sequence_score(p), p)
    )
    assert [o.permutation for o, _ in results] == [tuple(p) for p in expected]
    for order, score in results:
        assert score == pytest.approx(sequence_score(order.permutation), abs=1e-9)


def test_scripted_hand_trace_with_penalty(tri_graph, tri_params, monkeypatch):
    """Two groups of one beam, alpha = 0.5, traced step by step by hand.

    Step 0: group 0 takes token 0 (best raw score); group 1 sees token 0
    rescaled by 0.5 so tokens 0 and 1 tie at raw 1.0, and the start-beam
    candidate (token 0) is already claimed, so it takes token 1.
    Step 1: group 0 extends (0,) with token 1 (raw 3.0 dominates); group 1
    sees token 1 halved, and the best remaining candidate is (1,) + token 2.
    Step 2: single tokens remain, log-prob 0 each.
    """
    monkeypatch.setattr(search, "_advance", scripted_advance)
    trace = []
    results = diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=2, groups=2, alpha=0.5, trace=trace),
    )
    assert [o.permutation for o, _ in results] == [(0, 1, 2), (1, 2, 0)]

    s_012 = (
        2.0
        - logsumexp([2.0, 1.0, 0.0])
        + 3.0
        - logsumexp([3.0, 1.0])
        + 0.0
    )
    # group 1, step 0: penalized scores [1.0, 1.0, 0.0]
    s_1 = 1.0 - logsumexp([1.0, 1.0, 0.0])
    # group 1, step 1: beam (1,) unpenalized on its remaining tokens {0, 2}
    s_120 = s_1 + 2.5 - logsumexp([2.0, 2.5]) + 0.0
    assert results[0][1] == pytest.approx(s_012, abs=1e-9)
    assert results[1][1] == pytest.approx(s_120, abs=1e-9)

    chosen = [(e["step"], e["group"], e["token"]) for e in trace]
    assert chosen == [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 2),
        (2, 0, 2),
        (2, 1, 0),
    ]


def test_subtractive_penalty_variant(tri_graph, tri_params, monkeypatch):
    monkeypatch.setattr(search, "_advance", scripted_advance)
    results = diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=2, groups=2, alpha=0.5, penalty="subtract"),
    )
    for order, _ in results:
        assert sorted(order.permutation) == [0, 1, 2]


# -- re-ranking ------------------------------------------------------------------


def test_select_best_single_candidate(pairs6):
    order = VarOrder.identity(6)
    assert search.select_best_order([order], pairs6) == order


def test_select_best_prefers_smaller_bdd(pairs6):
    good = VarOrder.identity(6)
    bad = VarOrder((0, 2, 4, 1, 3, 5))
    assert search.select_best_order([bad, good], pairs6) == good
    mgr, roots = build_from_netlist(pairs6, bad)
    assert node_count(mgr, roots) == 16


def test_select_best_tie_goes_to_first(pairs6):
    a = VarOrder((1, 0, 2, 3, 4, 5))
    b = VarOrder((0, 1, 2, 3, 4, 5))  # same node count as a by symmetry
    assert search.select_best_order([a, b], pairs6) == a


def test_select_best_empty():
    with pytest.raises(ValueError):
        search.select_best_order([], None)
