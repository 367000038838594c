import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bdd import INTERLEAVED10, five_products, netlists

from bddseq import autodiff as ad
from bddseq import bdd
from bddseq import model as M
from bddseq import search
from bddseq.bdd import NodeCapExceeded, VarOrder, build_from_netlist, node_count, terminal_count
from bddseq.blif import parse_blif
from bddseq.graph import FeatureConfig, blif2graph
from bddseq.search import SearchConfig, diverse_beam_search, greedy_decode
from tests.gradcheck import perturb_params

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
    perturb_params(params, 0.3, seed=4)
    return params


def make_toy_model(seed, n_pis=4, n_gates=3):
    import random

    from bddseq.gen import random_cover_netlist

    r = random.Random(seed)
    net = random_cover_netlist(r, n_pis, n_gates, max_arity=3, n_outputs=1)
    graph = blif2graph(net, FeatureConfig(max_table_len=8))
    cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2)
    params = M.init_params(cfg, seed=seed)
    perturb_params(params, 0.5, seed=seed + 1)
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
    lps, _ = M.forward_teacher_forced(M.batch_layout([tri_graph], tri_params), [order], tri_params)
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
def test_batch_of_one_equals_width_one_search_bits(seed):
    _, graph, params = make_toy_model(seed, n_pis=3 + seed % 5)
    encoded = search.encode(graph, params)
    (order, score), = search._greedy(encoded, params)
    beam = diverse_beam_search(encoded, params, SearchConfig(beam_width=1, groups=1))
    assert beam == [(order, score)]  # the order and the score's bits
    assert greedy_decode(graph, params) == order == greedy_decode(encoded, params)[0]


def mixed_batch(seed):
    """Graphs of 1 to 10 inputs, in shuffled order, and a model over them."""
    import random

    from bddseq.gen import random_cover_netlist

    r = random.Random(seed)
    sizes = list(range(1, 11))
    r.shuffle(sizes)
    graphs = [
        blif2graph(random_cover_netlist(r, n, n + 2, n_outputs=2), FeatureConfig(max_table_len=8))
        for n in sizes
    ]
    cfg = M.ModelConfig(feature_dim=graphs[0].features.shape[1], hidden=8, layers=2, heads=2)
    params = M.init_params(cfg, seed=seed)
    perturb_params(params, 0.5, seed=seed + 1)
    return graphs, params


@pytest.mark.parametrize("seed", range(4))
def test_batched_greedy_never_picks_a_padded_input(seed, monkeypatch):
    graphs, params = mixed_batch(seed)
    advance = search._advance
    padded = []

    def padded_first(pool, encoded, params):
        # padded inputs get the best raw score of every row, so only the mask
        # keeps them out
        raw, hidden, cell = advance(pool, encoded, params)
        pad = ~encoded.real[pool.graphs]
        padded.append(pad.sum())
        return np.where(pad, 1e6, raw), hidden, cell

    monkeypatch.setattr(search, "_advance", padded_first)
    orders = greedy_decode(search.encode(graphs, params), params)
    assert [sorted(o.permutation) for o in orders] == [list(range(g.num_pis)) for g in graphs]
    assert sum(padded) > 0


@pytest.mark.parametrize("seed", range(4))
def test_batched_greedy_scores_match_single_graphs(seed):
    graphs, params = mixed_batch(seed)
    batched = search._greedy(search.encode(graphs, params), params)
    assert len(batched) == len(graphs)
    for graph, (order, score) in zip(graphs, batched):
        (_, single), = search._greedy(search.encode(graph, params), params)
        assert score == pytest.approx(single, abs=1e-9)
        lps, _ = M.forward_teacher_forced(M.batch_layout([graph], params), [order], params)
        assert score == pytest.approx(lps.data.sum(), abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_of_an_encoded_batch_gives_each_graph_its_order(seed):
    graphs, params = mixed_batch(seed)
    orders = greedy_decode(search.encode(graphs, params), params)
    assert orders == [greedy_decode(graph, params) for graph in graphs]


def test_beam_search_takes_one_graph(tri_graph, tri_params):
    with pytest.raises(ValueError, match="one graph"):
        diverse_beam_search(search.encode([tri_graph] * 2, tri_params), tri_params, SearchConfig(2, 1))


def test_greedy_of_a_graph_without_inputs_is_empty(tri_graph, tri_params):
    none = blif2graph(parse_blif(".model c\n.outputs o\n.names o\n1\n.end"), FeatureConfig(4))
    assert greedy_decode(none, tri_params) == VarOrder(())
    empty, order, again = greedy_decode(search.encode([none, tri_graph, none], tri_params), tri_params)
    assert empty == again == VarOrder(()) and order == greedy_decode(tri_graph, tri_params)


NO_INPUTS = ".model c\n.outputs o\n.names o\n1\n.end\n"
ONE_INPUT = ".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n"


@pytest.mark.parametrize("src, order", [(NO_INPUTS, ()), (ONE_INPUT, (0,))], ids=["none", "one"])
def test_a_circuit_of_at_most_one_input_has_one_order(src, order):
    # in every mode, and in single and batched greedy decoding, with score 0.0
    from bddseq.cli import _graph, predict_order
    from bddseq.corpus import RunConfig

    net, cfg = parse_blif(src), RunConfig(max_table_len=4, decompose_arity=2)
    graph = _graph(net, cfg)
    cfg_model = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2)
    params = M.init_params(cfg_model, seed=0)
    expected = VarOrder(order)
    for mode, (width, groups) in search.MODES.items():
        trace = []
        results = diverse_beam_search(graph, params, SearchConfig(width, groups, trace=trace))
        assert results == [(expected, 0.0)] and math.copysign(1.0, results[0][1]) == 1.0
        assert trace == [{"step": 0, "group": 0, "beam": 0, "token": 0, "score": 0.0}][: len(order)]
        assert predict_order(net, params, mode, cfg) == (expected, 1)
    assert greedy_decode(graph, params) == expected
    assert search._greedy(search.encode([graph] * 3, params), params) == [(expected, 0.0)] * 3


def counted_advance(monkeypatch):
    """The sizes of the pools `search._advance` is called on, in call order."""
    advance, calls = search._advance, []

    def counted(pool, encoded, params):
        calls.append(len(pool.tokens))
        return advance(pool, encoded, params)

    monkeypatch.setattr(search, "_advance", counted)
    return calls


@pytest.mark.parametrize("seed", range(2))
def test_no_decoder_step_for_the_last_position(seed, monkeypatch):
    # the last input of every beam is forced, so a search over P inputs runs
    # P - 1 decoder steps, and a batched greedy decode max-size - 1
    graphs, params = mixed_batch(seed)
    calls = counted_advance(monkeypatch)
    for graph in graphs:
        encoded = search.encode(graph, params)
        for width, groups in search.MODES.values():
            calls.clear()
            diverse_beam_search(encoded, params, SearchConfig(width, groups))
            assert len(calls) == graph.num_pis - 1
        calls.clear()
        greedy_decode(encoded, params)
        assert len(calls) == graph.num_pis - 1
    calls.clear()
    greedy_decode(search.encode(graphs, params), params)
    assert len(calls) == max(g.num_pis for g in graphs) - 1
    assert calls == sorted(calls, reverse=True)  # finished rows leave the pool


# |raw| below this keeps each span under (1e9 - 745) / 2, so a masked score
# lies more than 745 below the unmasked one even after the penalty
RAW_BOUND = (abs(M.MASK_VALUE) - 745) / 4


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_unmasked_column_has_log_probability_zero(data):
    # the forced last step's score is exactly the beam's: +0.0, bit for bit
    n = data.draw(st.integers(1, 12))
    raw = np.array(data.draw(st.lists(st.floats(-RAW_BOUND, RAW_BOUND), min_size=n, max_size=n)))
    free = data.draw(st.integers(0, n - 1))
    claimed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alpha = data.draw(st.floats(0.0, 1.0))
    visited = np.arange(n) != free
    masked = raw[None, :] + np.where(visited, M.MASK_VALUE, 0.0)
    penalized = masked - np.where(claimed, alpha * search._span(raw[None, :]), 0.0)
    value = ad.log_softmax(penalized)[0, free]
    assert value == 0.0 and not np.signbit(value)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("width", [1, 3, 6])
def test_pool_scores_equal_teacher_forced(seed, width):
    # every beam of the batched pool scores what training assigns its order
    _, graph, params = make_toy_model(seed)
    results = diverse_beam_search(
        graph, params, SearchConfig(beam_width=width, groups=1, alpha=0.0)
    )
    assert len(results) == width
    orders = [order for order, _ in results]
    lps, _ = M.forward_teacher_forced(M.batch_layout([graph] * width, params), orders, params)
    for (_, score), column in zip(results, lps.data.T):
        assert score == pytest.approx(column.sum(), abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("groups", [2, 4])
def test_alpha_zero_equals_plain_beam(seed, groups):
    _, graph, params = make_toy_model(seed)
    m = 4
    plain = diverse_beam_search(graph, params, SearchConfig(m, 1, 0.0))
    grouped = diverse_beam_search(
        graph, params, SearchConfig(beam_width=m, groups=groups, alpha=0.0)
    )
    assert [o.permutation for o, _ in plain] == [o.permutation for o, _ in grouped]
    assert [s for _, s in plain] == pytest.approx([s for _, s in grouped])


def test_search_on_an_encoded_graph_makes_no_tensors(monkeypatch):
    _, graph, params = make_toy_model(2, n_pis=5)
    encoded = search.encode(graph, params)
    assert type(encoded.pi_embs) is np.ndarray and type(encoded.keys) is np.ndarray
    made = []
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    results = diverse_beam_search(encoded, params, SearchConfig(beam_width=6, groups=3))
    greedy_decode(encoded, params)
    assert len(results) == 6 and made == []
    ad.matmul(params["ptr.Wq"], params["ptr.Wk"])  # the count works: grad is on here
    assert made


def test_inference_builds_no_autodiff_node(monkeypatch):
    # predict in every mode, and a batched greedy decode, end to end: no op
    # reaches the grad-on result helper
    from bddseq.cli import _graph, predict_order
    from bddseq.corpus import RunConfig
    from bddseq.gen import desk_corpus
    from tests.test_autodiff import refuse_nodes

    nets, cfg = desk_corpus(3, seed=3), RunConfig()
    graphs = [_graph(net, cfg) for net in nets]
    model = M.ModelConfig(feature_dim=graphs[0].features.shape[1], hidden=8, layers=2, heads=2)
    params = M.init_params(model, seed=1)
    refuse_nodes(monkeypatch)
    for net in nets:
        for mode in search.MODES:
            order, _ = predict_order(net, params, mode, cfg)
            assert sorted(order.permutation) == list(range(len(net.primary_inputs)))
    orders = greedy_decode(search.encode(graphs, params), params)
    assert [len(o.permutation) for o in orders] == [len(net.primary_inputs) for net in nets]


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


@pytest.mark.parametrize(
    "width, groups", [(4, 0), (0, 1), (-2, 1), (2, -1)], ids=["groups0", "width0", "width-2", "groups-1"]
)
def test_width_and_groups_below_one_rejected(width, groups):
    with pytest.raises(ValueError, match="at least 1"):
        SearchConfig(beam_width=width, groups=groups)


def test_mode_presets():
    assert search.MODES == {"efficiency": (1, 1), "balance": (20, 10), "quality": (50, 25)}
    for width, groups in search.MODES.values():
        config = SearchConfig(width, groups)  # each mode's groups divide its width
        assert (config.beam_width, config.groups, config.alpha) == (width, groups, 0.25)


# Orders (one digit per input token) and scores of the three
# search modes on one small model and circuit, and of one batched greedy
# decode of `mixed_batch(0)`. They were captured from the search as it was
# before pointer keys became per-row only, so a change of layout that moves
# a bit of the search shows here.
GOLDEN = {
    "efficiency": (
        "502314",
        [
            -5.314900471166665
        ],
    ),
    "balance": (
        "502134 502431 502314 502341 503214 503241 504231 501234 052314 501324 052341 "
        "520314 504321 520341 052134 051234 052431 025314 503421 053214",
        [
            -5.296514831465006, -5.30609913881398, -5.314900471166665, -5.336013229360766,
            -5.381711303684758, -5.396676046285189, -5.431421209877073, -5.435275898809092,
            -5.458987593839366, -5.465281098433624, -5.482440007548386, -5.504324359996017,
            -5.516370014307924, -5.523482937148052, -5.534336000175734, -5.543647879708085,
            -5.551860480153705, -5.555381651171109, -5.567336538902562, -5.570253515288306
        ],
    ),
    "quality": (
        "502134 502431 502314 502341 503214 503241 504231 501234 052314 501324 052341 "
        "520314 504321 520341 052134 051234 052431 025314 503124 503421 053214 502413 "
        "025341 053241 502143 520134 504213 051324 025134 520431 054231 501243 025431 "
        "205314 023514 250314 540231 530214 205341 250341 523014 530241 023541 054321 "
        "523041 051243 053124 053421 205134 052413",
        [
            -5.296514831465006, -5.30609913881398, -5.314900471166665, -5.336013229360766,
            -5.381711303684758, -5.396676046285189, -5.431421209877073, -5.435275898809092,
            -5.458987593839366, -5.465281098433624, -5.482440007548386, -5.504324359996017,
            -5.516370014307924, -5.523482937148052, -5.534336000175734, -5.543647879708085,
            -5.551860480153705, -5.555381651171109, -5.562709863918326, -5.567336538902562,
            -5.570253515288306, -5.57211077748729, -5.576813032589337, -5.587363100953755,
            -5.592957788834174, -5.60329759682915, -5.620299510925614, -5.625084128445353,
            -5.62589716162589, -5.6345540909008385, -5.636335667169179, -5.63948007836999,
            -5.65256366830546, -5.6866420453401725, -5.689616064728009, -5.690951332718421,
            -5.697225247152316, -5.699379047721134, -5.7046000309430855, -5.707858555850871,
            -5.7098951652385415, -5.714458562624534, -5.7163199748419675,
            -5.720470458732629, -5.7423761477704245, -5.74621470445449, -5.7486231169516175,
            -5.756191398567297, -5.760674175714691, -5.762547227303505
        ],
    ),
    "greedy": (
        "53716204 874305612 10 154302 2310 34102 102 0 1568970342 6310542",
        [
            -9.072248406900306, -11.218001520691857, -0.5952506232113168,
            -5.715009048131002, -2.6101279971038998, -3.875047320518812,
            -1.5559356204055963, 0.0, -13.135075650437432, -6.461045281429685
        ],
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_search_outputs_are_pinned(mode):
    if mode == "greedy":
        graphs, params = mixed_batch(0)
        results = search._greedy(search.encode(graphs, params), params)
    else:
        _, graph, params = make_toy_model(5, n_pis=6, n_gates=5)
        config = SearchConfig(*search.MODES[mode], alpha=0.25)
        results = diverse_beam_search(graph, params, config)
    orders, scores = GOLDEN[mode]
    assert [o.permutation for o, _ in results] == [tuple(map(int, o)) for o in orders.split()]
    assert [s for _, s in results] == pytest.approx(scores, abs=1e-9)


# The trace records of the three modes on GOLDEN's model and circuit. Each
# mode gives the tokens each step claims, in claim order, one string per
# step, and every record's score negated (a score is a summed
# log-probability, at most 0), to 10 decimals. A record's beam is its place
# among its step's claims and its group is beam // quota, as every record of
# the search recorded here has it.
TRACE_GOLDEN = {
    "efficiency": (
        "5 0 2 3 1 4",
        """
        1.4073017737 2.4845971616 3.6530852570 4.6322539522 5.3149004712 5.3149004712
        """,
    ),
    "balance": (
        "502341 05220544331100503545 22304511350400553033 32413322322143333524 "
        "14331433124124333121 41414114441411441414",
        """
        1.4073017737 1.4292772789 1.6002693618 1.9987498589 1.9597015561 2.1710054823
        2.4845971616 2.6083992920 2.8372297320 2.8704063071 2.9401188488 3.0660839757
        3.0933662838 3.1066303480 3.0899222246 3.1101665567 3.2237976938 3.2435818116
        3.2162254884 3.3029096648 3.3405414954 3.3815496136 3.3897388083 3.4125135186
        3.4540192737 3.5426394776 3.6530852570 3.7957337772 3.8044153824 3.8601165161
        3.8799376473 3.8928274053 3.8897520772 3.9967387646 3.9928931572 4.0222450385
        4.0462954651 4.0829965389 4.1329719281 4.1474390822 4.2147092525 4.2375967261
        4.2449945420 4.2469673602 4.3284588408 4.3423839637 4.6322539522 4.6960185017
        4.7674002978 4.7684518075 4.7774978697 4.8207105873 4.8282604162 4.8390274210
        4.8728927494 4.8856245358 4.9466636922 4.9581299504 4.9585182921 4.9689496291
        4.9781275552 5.0024335470 5.0062220324 5.0097317045 5.0137432009 5.0241952955
        5.3149004712 5.3360132294 5.2965148315 5.3060991388 5.3817113037 5.3966760463
        5.4314212099 5.4352758988 5.4589875938 5.4652810984 5.4824400075 5.5043243600
        5.5163700143 5.5234829371 5.5343360002 5.5436478797 5.5518604802 5.5553816512
        5.5673365389 5.5702535153 5.2965148315 5.3060991388 5.3149004712 5.3360132294
        5.3817113037 5.3966760463 5.4314212099 5.4352758988 5.4589875938 5.4652810984
        5.4824400075 5.5043243600 5.5163700143 5.5234829371 5.5343360002 5.5436478797
        5.5518604802 5.5553816512 5.5673365389 5.5702535153
        """,
    ),
    "quality": (
        "502341 052205443311005035452212341143 "
        "22304511350400553033552042152024405120132203523400 "
        "32413322322143333524112041432213412452411504345205 "
        "14331433124124333122114443123334311131441442442231 "
        "41414114441411441441431134344113144414114111134143",
        """
        1.4073017737 1.4292772789 1.6002693618 1.9987498589 1.9597015561 2.1710054823
        2.4845971616 2.6083992920 2.8372297320 2.8704063071 2.9401188488 3.0660839757
        3.0933662838 3.1066303480 3.0899222246 3.1101665567 3.2237976938 3.2435818116
        3.2162254884 3.3029096648 3.3405414954 3.3815496136 3.3897388083 3.4125135186
        3.4540192737 3.5426394776 3.5653673421 3.5745520012 3.5801148097 3.8659925930
        3.8968125475 3.9111674068 4.0474645351 4.0720730139 4.1622082780 4.2256362306
        3.6530852570 3.7957337772 3.8044153824 3.8601165161 3.8799376473 3.8928274053
        3.8897520772 3.9967387646 3.9928931572 4.0222450385 4.0462954651 4.0829965389
        4.1329719281 4.1474390822 4.2147092525 4.2375967261 4.2449945420 4.2469673602
        4.3284588408 4.3423839637 4.3494680038 4.3597249320 4.3668390388 4.3688734586
        4.3813082260 4.3998354429 4.4149862877 4.4326112122 4.4382256064 4.4405981923
        4.4657608142 4.4743401833 4.4954913410 4.4969947213 4.4994188767 4.5076122893
        4.5197469275 4.5207899006 4.5298718109 4.5361786684 4.5444254282 4.5691398470
        4.5853297151 4.5944137498 4.6199496601 4.6292067207 4.6547064841 4.6693607496
        4.6791349439 4.6866155982 4.6322539522 4.6960185017 4.7674002978 4.7684518075
        4.7774978697 4.8207105873 4.8282604162 4.8390274210 4.8728927494 4.8856245358
        4.9466636922 4.9581299504 4.9585182921 4.9689496291 4.9781275552 5.0024335470
        5.0062220324 5.0097317045 5.0137432009 5.0241952955 5.0261893594 5.0283325581
        5.0323673749 5.0328566050 5.0429366404 5.0519247864 5.0609693461 5.0852277802
        5.0939384978 5.1210653777 5.1670713154 5.1729005884 5.1763260268 5.1846693513
        5.1856082442 5.1868928691 5.1874572423 5.2005714973 5.2125519646 5.2132207800
        5.2173098648 5.2179515245 5.2261014249 5.2271159275 5.2326946638 5.2822649722
        5.2826664248 5.3048463802 5.3070561163 5.3083118623 5.3149004712 5.3360132294
        5.2965148315 5.3060991388 5.3817113037 5.3966760463 5.4314212099 5.4352758988
        5.4589875938 5.4652810984 5.4824400075 5.5043243600 5.5163700143 5.5234829371
        5.5343360002 5.5436478797 5.5518604802 5.5553816512 5.5627098639 5.5673365389
        5.5702535153 5.5721107775 5.5768130326 5.5873631010 5.5929577888 5.6032975968
        5.6202995109 5.6250841284 5.6258971616 5.6345540909 5.6363356672 5.6394800784
        5.6525636683 5.6866420453 5.6896160647 5.6909513327 5.6972252472 5.6993790477
        5.7046000309 5.7078585559 5.7098951652 5.7144585626 5.7163199748 5.7204704587
        5.7423761478 5.7462147045 5.7486231170 5.7561913986 5.7606741757 5.7625472273
        5.2965148315 5.3060991388 5.3149004712 5.3360132294 5.3817113037 5.3966760463
        5.4314212099 5.4352758988 5.4589875938 5.4652810984 5.4824400075 5.5043243600
        5.5163700143 5.5234829371 5.5343360002 5.5436478797 5.5518604802 5.5553816512
        5.5627098639 5.5673365389 5.5702535153 5.5721107775 5.5768130326 5.5873631010
        5.5929577888 5.6032975968 5.6202995109 5.6250841284 5.6258971616 5.6345540909
        5.6363356672 5.6394800784 5.6525636683 5.6866420453 5.6896160647 5.6909513327
        5.6972252472 5.6993790477 5.7046000309 5.7078585559 5.7098951652 5.7144585626
        5.7163199748 5.7204704587 5.7423761478 5.7462147045 5.7486231170 5.7561913986
        5.7606741757 5.7625472273
        """,
    ),
}


@pytest.mark.parametrize("mode", sorted(TRACE_GOLDEN))
def test_search_trace_is_pinned(mode):
    _, graph, params = make_toy_model(5, n_pis=6, n_gates=5)
    config = SearchConfig(*search.MODES[mode], alpha=0.25, trace=[])
    diverse_beam_search(graph, params, config)
    steps, scores = TRACE_GOLDEN[mode]
    quota = config.beam_width // config.groups
    expected = [
        {"step": step, "group": beam // quota, "beam": beam, "token": int(token)}
        for step, tokens in enumerate(steps.split())
        for beam, token in enumerate(tokens)
    ]
    assert [{k: v for k, v in r.items() if k != "score"} for r in config.trace] == expected
    negated = [-r["score"] for r in config.trace]
    assert negated == pytest.approx([float(s) for s in scores.split()], abs=1e-9)


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

    A claimed token's raw score drops by alpha times the span (max - min) of
    its beam's raw scores, visited tokens included.
    Step 0: group 0 takes token 0 (best raw score); group 1 sees token 0 at
    2.0 - 0.5 * 2.0 = 1.0, tied with token 1, and the start-beam candidate
    (token 0) is already claimed, so it takes token 1.
    Step 1: group 0 extends (0,) with token 1 (raw 3.0 dominates); group 1
    sees beam (0,)'s token 1 at 3.0 - 0.5 * 8.9 = -1.45, so (0,) + token 2
    now beats the best continuation of (1,), token 2.
    Step 2: single tokens remain, log-prob 0 each; the penalized score of
    (0, 2) now leads, so group 0 extends it.
    """
    monkeypatch.setattr(search, "_advance", scripted_advance)
    trace = []
    results = diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=2, groups=2, alpha=0.5, trace=trace),
    )
    assert [o.permutation for o, _ in results] == [(0, 2, 1), (0, 1, 2)]

    s_0 = 2.0 - logsumexp([2.0, 1.0, 0.0])
    # group 1, step 1: beam (0,) with token 1 penalized, on its tokens {1, 2}
    s_021 = s_0 + 1.0 - logsumexp([3.0 - 0.5 * 8.9, 1.0]) + 0.0
    s_012 = s_0 + 3.0 - logsumexp([3.0, 1.0]) + 0.0
    s_1 = 1.0 - logsumexp([1.0, 1.0, 0.0])  # group 1, step 0
    s_12 = s_1 + 2.5 - logsumexp([2.0, 2.5])
    assert s_021 > s_12  # why group 1 extends (0,) at step 1
    assert results[0][1] == pytest.approx(s_021, abs=1e-9)
    assert results[1][1] == pytest.approx(s_012, abs=1e-9)

    chosen = [(e["step"], e["group"], e["token"]) for e in trace]
    assert chosen == [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 2),
        (2, 0, 1),
        (2, 1, 2),
    ]
    assert [e["score"] for e in trace[:2]] == pytest.approx([s_0, s_1], abs=1e-9)


def test_subtractive_penalty_variant(tri_graph, tri_params, monkeypatch):
    monkeypatch.setattr(search, "_advance", scripted_advance)
    results = diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=2, groups=2, alpha=0.5),
    )
    for order, _ in results:
        assert sorted(order.permutation) == [0, 1, 2]


# every raw score negative: a penalty that rescaled the logit would raise a
# claimed token; subtracting the span must lower it
NEGATIVE_SCRIPT = {
    (): [-1.0, -1.5, -4.0],
    (0,): [-9.0, -1.0, -1.2],
    (1,): [-1.0, -9.0, -2.0],
    (2,): [-2.0, -3.0, -9.0],
    (0, 1): [-9.0, -9.0, -0.5],
    (0, 2): [-9.0, -0.5, -9.0],
    (1, 0): [-9.0, -9.0, -0.5],
    (1, 2): [-0.5, -9.0, -9.0],
    (2, 0): [-9.0, -0.5, -9.0],
    (2, 1): [-0.5, -9.0, -9.0],
}


def negative_advance(pool, encoded, params):
    raw = np.stack([np.array(NEGATIVE_SCRIPT[t], dtype=np.float64) for t in pool.tokens])
    return raw, pool.hidden, pool.cell


def test_penalty_lowers_a_claimed_negative_score(tri_graph, tri_params, monkeypatch):
    """Two groups of one beam, alpha = 0.5, every raw score negative.

    Step 0: group 0 takes token 0; group 1 sees it at -1.0 - 0.5 * 3.0 = -2.5,
    below its raw -1.0, so the log-probability of token 1, which group 1
    takes, rises above its unpenalized value.
    Step 1: group 0 extends (1,) with token 0, the best of the pool; group 1
    sees that token of (1,) at -1.0 - 0.5 * 8.0 = -5.0, which lifts (1,) +
    token 2 above (0,) + token 1.
    Step 2: single tokens remain, log-prob 0 each.
    """
    monkeypatch.setattr(search, "_advance", negative_advance)
    trace = []
    results = diverse_beam_search(
        tri_graph,
        tri_params,
        SearchConfig(beam_width=2, groups=2, alpha=0.5, trace=trace),
    )
    s_0 = -1.0 - logsumexp([-1.0, -1.5, -4.0])
    s_1 = -1.5 - logsumexp([-2.5, -1.5, -4.0])
    assert s_1 > -1.5 - logsumexp([-1.0, -1.5, -4.0])  # token 0's share fell
    assert [e["score"] for e in trace[:2]] == pytest.approx([s_0, s_1], abs=1e-9)

    s_10 = s_1 - 1.0 - logsumexp([-1.0, -2.0])
    s_12 = s_1 - 2.0 - logsumexp([-5.0, -2.0])
    assert s_12 > s_0 - 1.0 - logsumexp([-1.0, -1.2])  # why group 1 extends (1,)
    assert [(e["step"], e["group"], e["token"]) for e in trace] == [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 1, 2),
        (2, 0, 0),
        (2, 1, 2),
    ]
    assert [o.permutation for o, _ in results] == [(1, 2, 0), (1, 0, 2)]
    assert [s for _, s in results] == pytest.approx([s_12, s_10], abs=1e-9)


# -- the claim loop against a fresh ranking per group ---------------------------


def per_group_decode(encoded, params, config):
    """Reference: every group log-softmaxes and stably sorts the whole pool,
    with the continuations taken so far masked out."""
    num_pis, hdim = encoded.pi_embs.shape[0], params.config.hidden
    quota = config.beam_width // config.groups
    pool = search.Pool(
        tokens=[()],
        scores=np.zeros(1),
        visited=np.zeros((1, num_pis), dtype=bool),
        hidden=np.zeros((1, hdim)),
        cell=np.zeros((1, hdim)),
        graphs=np.zeros(1, dtype=np.int64),
    )
    for step in range(num_pis):
        with ad.no_grad():  # as in the searches, which run `_advance` under no_grad()
            raw, hidden, cell = search._advance(pool, encoded, params)
        mask = np.where(pool.visited, M.MASK_VALUE, 0.0)
        taken = pool.visited.copy()
        claimed = np.zeros(num_pis, dtype=bool)
        rows, cols, scores = [], [], []
        for group in range(config.groups):
            total = pool.scores[:, None] + ad.log_softmax(
                raw - np.where(claimed, config.alpha * search._span(raw), 0.0) + mask
            )
            flat = np.where(taken, -np.inf, total).ravel()
            for k in np.argsort(-flat, kind="stable")[:quota].tolist():
                score = float(flat[k])
                if score == -np.inf:
                    break
                b, token = divmod(k, num_pis)
                taken[b, token] = claimed[token] = True
                rows.append(b)
                cols.append(token)
                scores.append(score)
                config.trace.append(
                    {
                        "step": step,
                        "group": group,
                        "beam": len(rows) - 1,
                        "token": token,
                        "score": score,
                    }
                )
        visited = pool.visited[rows]
        visited[np.arange(len(rows)), cols] = True
        pool = search.Pool(
            tokens=[pool.tokens[b] + (t,) for b, t in zip(rows, cols)],
            scores=np.array(scores),
            visited=visited,
            hidden=hidden[rows],
            cell=cell[rows],
            graphs=pool.graphs[rows],
        )
    ranked = sorted(zip(pool.scores.tolist(), pool.tokens), key=lambda c: (-c[0], c[1]))
    return [(VarOrder(tokens), score) for score, tokens in ranked]


def claim_loop_model(name):
    if name == "desk":  # a 10-input desk circuit: pools of up to 75 rows
        from bddseq.gen import desk_corpus

        net = desk_corpus(1, seed=0, min_pis=10, max_pis=10)[0]
        graph = blif2graph(net, FeatureConfig(max_table_len=8))
        assert graph.num_pis == 10
        cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=1, heads=2)
        params = M.init_params(cfg, seed=0)
        perturb_params(params, 0.5, seed=1)
        return graph, params
    if name == "zero":  # every raw score is 0, so every ranking is all ties
        _, graph, params = make_toy_model(0, n_pis=5)
        for p in params.tensors.values():
            p.data[...] = 0.0
        return graph, params
    seed = int(name[3:])
    _, graph, params = make_toy_model(seed, n_pis=4 + seed % 3, n_gates=4)
    return graph, params


# transforms of the model's raw scores: sharper rankings and wider spans, or
# every score shifted negative
RAW_TRANSFORMS = {"scale": lambda raw: 3.0 * raw, "subtract": lambda raw: raw - 5.0}


@pytest.mark.parametrize("model", ["toy0", "toy1", "toy2", "toy3", "zero", "desk"])
@pytest.mark.parametrize("quota", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("transform", ["scale", "subtract"])
def test_claim_loop_matches_per_group_ranking(model, quota, alpha, transform, monkeypatch):
    # the desk circuit runs the modes' group counts: at quota 2 the balance
    # (20/10) and quality (50/25) widths
    graph, params = claim_loop_model(model)
    encoded = search.encode(graph, params)
    advance = search._advance

    def transformed(pool, encoded, params):
        raw, hidden, cell = advance(pool, encoded, params)
        return RAW_TRANSFORMS[transform](raw), hidden, cell

    monkeypatch.setattr(search, "_advance", transformed)
    for groups in (10, 25) if model == "desk" else (1, 2, 5):
        configs = [
            SearchConfig(beam_width=groups * quota, groups=groups, alpha=alpha, trace=[])
            for _ in range(2)
        ]
        got = diverse_beam_search(encoded, params, configs[0])
        expected = per_group_decode(encoded, params, configs[1])
        assert got == expected  # orders and scores, exactly
        assert configs[0].trace == configs[1].trace


# -- re-ranking ------------------------------------------------------------------


def rebuild_select_best_order(candidates, netlist, node_cap=2_000_000):
    """Reference: build every candidate from the netlist, keep the first least."""
    best, best_count = None, None
    for cand in candidates:
        order = cand if isinstance(cand, VarOrder) else VarOrder.of(cand)
        try:
            mgr, roots = build_from_netlist(netlist, order, node_cap=node_cap)
        except NodeCapExceeded:
            continue
        count = node_count(mgr, roots)
        if best_count is None or count < best_count:
            best, best_count = order, count
    return best


@st.composite
def rerank_cases(draw):
    """A netlist and candidates with duplicates and ties, as tuples or orders."""
    net = draw(netlists())
    perms = st.permutations(range(len(net.primary_inputs))).map(tuple)
    pool = draw(st.lists(perms, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool) | perms, min_size=1, max_size=12))
    wrap = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    return net, [VarOrder(p) if w else p for p, w in zip(picks, wrap)]


@settings(max_examples=100, deadline=None)
@given(rerank_cases())
def test_rerank_in_place_matches_rebuilds(case):
    net, candidates = case
    assert search.select_best_order(candidates, net) == rebuild_select_best_order(candidates, net)
    # one diagram moved between the candidates by swaps, in lexicographic
    # order, counts what fresh builds count: the exactness the table's
    # prices rest on
    mgr = None
    for perm in sorted(tuple(c) for c in candidates):
        if mgr is None:
            mgr, roots = build_from_netlist(net, VarOrder(perm))
            mgr.collect_garbage()
        else:
            assert mgr.shuffle_to(perm)
        mgr.check()
        fresh, fresh_roots = build_from_netlist(net, VarOrder(perm))
        assert len(mgr.nodes) + terminal_count(roots) == node_count(fresh, fresh_roots)


def counted_builds(monkeypatch):
    calls = []

    def counted(netlist, order, **kwargs):
        calls.append(order.permutation)
        return build_from_netlist(netlist, order, **kwargs)

    monkeypatch.setattr(search, "build_from_netlist", counted)
    return calls


def test_rerank_builds_once(monkeypatch, pairs6):
    builds = counted_builds(monkeypatch)
    candidates = list(itertools.permutations(range(6)))[::37]
    search.select_best_order(candidates, pairs6)
    assert builds == [candidates[0]]


# five products under a cap of 40 nodes: orders that keep each product's
# inputs together build within it (10 live nodes), the interleaved order
# (62 live nodes) neither builds within it nor is reached by swaps within it
PAIRED10 = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8)


def test_rerank_skips_a_candidate_whose_build_passes_the_cap():
    # the interleaved order comes first lexicographically, so it is built first
    chosen = search.select_best_order([INTERLEAVED10, PAIRED10], five_products(), node_cap=40)
    assert chosen == VarOrder(PAIRED10)


def test_rerank_skips_a_candidate_whose_swaps_pass_the_cap(monkeypatch):
    # the identity is built and priced, the interleaved order's move passes
    # the cap, so the table rebuilds the identity, and PAIRED10 is priced on
    # that build; it ties the identity and wins as the earlier candidate
    builds = counted_builds(monkeypatch)
    net = five_products()
    candidates = [PAIRED10, INTERLEAVED10, tuple(range(10))]
    assert search.select_best_order(candidates, net, node_cap=40) == VarOrder(PAIRED10)
    assert builds == [tuple(range(10))] * 2
    assert search.select_best_order(candidates[1:], net, node_cap=40) == VarOrder.identity(10)


def and_chain(n):
    """x0 AND x1 AND ... AND x(n-1) as a chain of two-input gates: n live
    nodes under every order. At n = 8 a build under the identity order
    makes 36 nodes, and under the reversed order 15."""
    src = ".model c\n.inputs " + " ".join(f"x{i}" for i in range(n))
    src += f"\n.outputs g{n - 1}\n.names x0 x1 g1\n11 1\n"
    src += "".join(f".names g{k - 1} x{k} g{k}\n11 1\n" for k in range(2, n))
    return parse_blif(src + ".end")


def test_rerank_prices_a_candidate_whose_build_passes_the_cap(monkeypatch):
    # at cap 20 the identity order does not build but the reversed order
    # does. A candidate fits when its store and every swap of its move stay
    # within the cap, so the identity, priced on the reversed build's table,
    # fits, ties it, and wins as the earlier candidate; rebuilding every
    # candidate would skip it
    builds = counted_builds(monkeypatch)
    net = and_chain(8)
    identity, backwards = tuple(range(8)), tuple(range(7, -1, -1))
    assert search.select_best_order([identity, backwards], net, node_cap=20) == VarOrder(identity)
    assert builds == [identity, backwards]
    assert search.select_best_order([backwards, identity], net, node_cap=20) == VarOrder(backwards)
    assert rebuild_select_best_order([identity, backwards], net, node_cap=20) == VarOrder(backwards)


def test_rerank_moves_its_own_build_with_no_copy(monkeypatch, pairs6):
    # the table owns the build it prices, at the default cap and when a move
    # passes the cap and the table rebuilds, so nothing is transferred
    copies = []
    transfer = bdd.transfer

    def counted(*args, **kwargs):
        copies.append(args)
        return transfer(*args, **kwargs)

    monkeypatch.setattr(bdd, "transfer", counted)
    search.select_best_order(list(itertools.permutations(range(6)))[::37], pairs6)
    builds = counted_builds(monkeypatch)
    candidates = [PAIRED10, INTERLEAVED10, tuple(range(10))]
    search.select_best_order(candidates, five_products(), node_cap=40)
    assert builds == [tuple(range(10))] * 2  # the refused move rebuilt
    assert copies == []


def test_rerank_raises_when_no_candidate_fits():
    over = [INTERLEAVED10, (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)]
    with pytest.raises(NodeCapExceeded):
        search.select_best_order(over, five_products(), node_cap=40)



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
