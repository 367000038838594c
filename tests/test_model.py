import random

import numpy as np
import pytest

from bddseq import autodiff as ad
from bddseq import model as M
from bddseq.autodiff import Tensor
from bddseq.bdd import VarOrder
from bddseq.blif import parse_blif
from bddseq.gen import random_cover_netlist
from bddseq.graph import CircuitGraph, FeatureConfig, blif2graph, disjoint_union


def tiny_graph(net, L=4):
    return blif2graph(net, FeatureConfig(max_table_len=L))


def tiny_params(graph, hidden=8, layers=2, heads=2, seed=1, jitter=0.05):
    cfg = M.ModelConfig(
        feature_dim=graph.features.shape[1], hidden=hidden, layers=layers, heads=heads
    )
    params = M.init_params(cfg, seed=seed)
    if jitter:
        M.perturb_params(params, jitter, seed=seed + 1)
    return params


def test_encode_single_node_finite():
    graph = CircuitGraph(
        node_names=["a"],
        edges=[],
        features=np.ones((1, 8)),
        raw_structural=np.zeros((1, 4), dtype=np.int64),
        pi_positions=[0],
        max_table_len=4,
    )
    params = tiny_params(graph)
    emb = M.encode(graph, params)
    assert emb.shape == (1, 8)
    assert np.isfinite(emb.data).all()


def test_encode_permutation_equivariance(t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph)
    emb = M.encode(graph, params).data
    perm = [3, 0, 4, 1, 2, 8, 6, 7, 5]  # relabeling of the nine nodes
    inv = {p: i for i, p in enumerate(perm)}
    permuted = CircuitGraph(
        node_names=[graph.node_names[p] for p in perm],
        edges=[(inv[u], inv[v]) for u, v in graph.edges],
        features=graph.features[perm],
        raw_structural=graph.raw_structural[perm],
        pi_positions=[inv[i] for i in graph.pi_positions],
        max_table_len=graph.max_table_len,
    )
    emb_p = M.encode(permuted, params).data
    assert np.allclose(emb_p, emb[perm], atol=1e-9)


def test_encode_isomorphic_components_equal():
    # two disconnected, identical two-node components
    feats = np.zeros((4, 8))
    feats[0] = feats[2] = [0, 0, 0, 0, 1, 0, 0, 1]
    feats[1] = feats[3] = [0, 0, 0, 1, 2, 1, 1, 0]
    graph = CircuitGraph(
        node_names=["a", "g", "b", "h"],
        edges=[(0, 1), (2, 3)],
        features=feats,
        raw_structural=np.zeros((4, 4), dtype=np.int64),
        pi_positions=[0, 2],
        max_table_len=4,
    )
    params = tiny_params(graph)
    emb = M.encode(graph, params).data
    assert np.allclose(emb[0], emb[2])
    assert np.allclose(emb[1], emb[3])


def teacher_forced(graph, label, params):
    """Per-step log-probabilities of one sample, through the batched path."""
    lps, mask = M.forward_teacher_forced([(graph, label)], params)
    assert mask.shape == (graph.num_pis, 1) and mask.all()
    return lps.data[:, 0]


def test_pointer_step_single_unvisited(t5):
    # the last step leaves one input unmasked, so it is certain
    graph = tiny_graph(t5)
    params = tiny_params(graph)
    lps = teacher_forced(graph, VarOrder((3, 1, 0, 2, 4)), params)
    assert lps[-1] == pytest.approx(0.0, abs=1e-12)


def test_pointer_uniform_with_zero_weights(t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph, jitter=0.0)
    for name in ("ptr.Wq", "ptr.Wk", "ptr.v"):
        params[name].data[:] = 0.0
    lps = teacher_forced(graph, VarOrder((4, 2, 0, 1, 3)), params)
    for t, lp in enumerate(lps):
        assert lp == pytest.approx(np.log(1 / (5 - t)), abs=1e-12)


def test_teacher_forced_proper_distributions(t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph)
    label = VarOrder((4, 2, 0, 1, 3))
    lps = teacher_forced(graph, label, params)
    pis = M.pi_embeddings(graph, M.encode(graph, params))
    keys = M.pointer_keys(pis, params)
    hidden = cell = Tensor(np.zeros((1, 8)))
    prev = params["dec.start"]
    mask = np.zeros(5)
    for t, token in enumerate(label.permutation):
        raw, hidden, cell = M.decoder_advance(hidden, cell, prev, keys, params)
        x = raw.data.reshape(-1) + mask
        log_probs = x - x.max() - np.log(np.exp(x - x.max()).sum())
        probs = np.exp(log_probs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[mask != 0].sum() == 0.0
        assert log_probs[token] == pytest.approx(lps[t], abs=1e-12)
        mask[token] = M.MASK_VALUE
        prev = ad.gather_rows(pis, [token])


def test_teacher_forced_single_pi():
    net = parse_blif(".model t\n.inputs a\n.outputs o\n.names a o\n1 1\n.end")
    graph = tiny_graph(net)
    params = tiny_params(graph)
    lps = teacher_forced(graph, VarOrder((0,)), params)
    assert len(lps) == 1
    assert lps[0] == pytest.approx(0.0, abs=1e-12)


def test_teacher_forced_rejects_bad_label(t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph)
    with pytest.raises(ValueError):
        M.forward_teacher_forced([(graph, VarOrder((0, 1, 2)))], params)


def test_loss_identities():
    zero = M.loss(Tensor([[0.0]]), [[1]], [1.0])
    assert zero.item() == pytest.approx(0.0)
    one = M.loss(Tensor([[-1.0], [-1.0]]), [[1], [1]], [1.0, 1.0])
    assert one.item() == pytest.approx(1.0)


def test_loss_padded_batch_matches_per_sample():
    rng = np.random.default_rng(3)
    lp_a = -rng.uniform(0.1, 2.0, size=3)
    lp_b = -rng.uniform(0.1, 2.0, size=5)
    weights = [M.position_weight(t) for t in range(5)]
    padded = M.loss(
        Tensor(np.stack([np.concatenate([lp_a, [0.0, 0.0]]), lp_b], axis=1)),
        np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]).T,
        weights,
    )
    separate = 0.5 * (
        M.loss(Tensor(lp_a[:, None]), [[1]] * 3, weights).item()
        + M.loss(Tensor(lp_b[:, None]), [[1]] * 5, weights).item()
    )
    assert padded.item() == pytest.approx(separate)


def test_loss_all_zero_mask_raises():
    with pytest.raises(ZeroDivisionError):
        M.loss(Tensor([[-1.0]]), [[0]], [1.0])


def test_gradient_check_tiny_model(t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph, hidden=8, layers=2, heads=2)
    errors = M.gradient_check(
        [(graph, VarOrder((2, 0, 1, 4, 3)))], params, probes_per_group=4
    )
    assert max(errors.values()) < 1e-4


def toy_batch(seed, sizes):
    """Random-cover circuits with the given input counts, random labels."""
    r = random.Random(seed)
    batch = []
    for i, n in enumerate(sizes):
        net = random_cover_netlist(r, n, r.randint(1, 4), max_arity=3, n_outputs=1)
        perm = list(range(n))
        r.shuffle(perm)
        batch.append((blif2graph(net, FeatureConfig(max_table_len=8)), VarOrder(tuple(perm))))
    return batch


def toy_params(batch, seed):
    cfg = M.ModelConfig(
        feature_dim=batch[0][0].features.shape[1], hidden=8, layers=2, heads=2
    )
    params = M.init_params(cfg, seed=seed)
    M.perturb_params(params, 0.3, seed=seed + 1)
    return params


def batch_loss(batch, params, uniform=False):
    return M.loss(*M.sample_loss_terms(batch, params, uniform))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sizes", [(1,), (4,), (1, 5), (3, 1, 6, 2), (5, 5, 2, 1, 4)])
def test_batched_loss_is_mean_of_single_losses(seed, sizes):
    batch = toy_batch(seed, sizes)
    params = toy_params(batch, seed)
    for uniform in (False, True):
        single = [batch_loss([sample], params, uniform).item() for sample in batch]
        assert batch_loss(batch, params, uniform).item() == pytest.approx(
            np.mean(single), abs=1e-9
        )


def test_encode_disjoint_union_matches_components():
    batch = toy_batch(7, (3, 6, 1, 4))
    params = toy_params(batch, 7)
    union = disjoint_union([g for g, _ in batch])
    emb = M.encode(union, params).data
    offset = 0
    for graph, _ in batch:
        part = M.encode(graph, params).data
        assert np.allclose(emb[offset : offset + graph.num_nodes], part, atol=1e-12)
        offset += graph.num_nodes
    assert offset == len(emb)


def test_gradient_check_mixed_batch():
    batch = toy_batch(11, (5, 2, 4))
    params = toy_params(batch, 11)
    errors = M.gradient_check(batch, params, probes_per_group=4)
    assert max(errors.values()) < 1e-4


def test_padded_key_rows_change_nothing(monkeypatch):
    batch = toy_batch(5, (2, 6, 4))
    params = toy_params(batch, 5)
    sizes = [g.num_pis for g, _ in batch]
    real = np.arange(max(sizes)) < np.array(sizes)[:, None]

    def run():
        for p in params.tensors.values():
            p.grad = None
        out = batch_loss(batch, params)
        out.backward()
        return out.item(), {k: p.grad.copy() for k, p in params.tensors.items()}

    loss_a, grads_a = run()
    outer_add = ad.outer_add
    noise = np.random.default_rng(0).standard_normal((len(batch), max(sizes), 8)) * 5.0
    noise[real] = 0.0

    def perturbed(a, keys):
        if keys.data.ndim == 3:  # per-sample keys: shift the padded rows
            keys = ad.add(keys, Tensor(noise))
        return outer_add(a, keys)

    monkeypatch.setattr(ad, "outer_add", perturbed)
    loss_b, grads_b = run()
    assert loss_a == loss_b
    for k in grads_a:
        assert np.array_equal(grads_a[k], grads_b[k]), k


@pytest.mark.parametrize("size", [0, -1])
def test_train_config_rejects_non_positive_batch(size):
    with pytest.raises(ValueError, match="batch_size"):
        M.TrainConfig(batch_size=size)


@pytest.mark.parametrize("field", ["feature_dim", "hidden", "layers", "heads"])
@pytest.mark.parametrize("size", [0, -4])
def test_model_config_rejects_non_positive_sizes(field, size):
    sizes = {"feature_dim": 20, "hidden": 8, "layers": 2, "heads": 2, field: size}
    with pytest.raises(ValueError, match=field):
        M.ModelConfig(**sizes)


def test_train_zero_lr_keeps_params(t5):
    graph = tiny_graph(t5)
    label = VarOrder((2, 0, 1, 4, 3))
    params = tiny_params(graph)
    before = {k: p.data.copy() for k, p in params.tensors.items()}
    cfg = M.TrainConfig(epochs=3, batch_size=1, learning_rate=0.0, seed=0)
    params, _, _ = M.train([(graph, label)], cfg, params=params)
    for k, p in params.tensors.items():
        assert np.array_equal(p.data, before[k])


def test_train_deterministic(t5):
    graph = tiny_graph(t5)
    label = VarOrder((2, 0, 1, 4, 3))

    def run():
        cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=16, layers=2, heads=2)
        params = M.init_params(cfg, seed=5)
        tcfg = M.TrainConfig(epochs=4, batch_size=1, learning_rate=1e-2, seed=5)
        params, history, _ = M.train([(graph, label)], tcfg, params=params)
        return history[-1]["train_loss"], {k: p.data.copy() for k, p in params.tensors.items()}

    loss_a, tensors_a = run()
    loss_b, tensors_b = run()
    assert loss_a == loss_b
    for k in tensors_a:
        assert np.array_equal(tensors_a[k], tensors_b[k])


def test_save_load_roundtrip(tmp_path, t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph, hidden=8, layers=2, heads=2)
    path_a = tmp_path / "w1.bin"
    path_b = tmp_path / "w2.bin"
    M.save_params(params, path_a)
    loaded = M.load_params(path_a)
    M.save_params(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded.config == params.config


def test_load_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(M.WeightFormatError, match="magic"):
        M.load_params(path)


def test_load_rejects_shape_mismatch(tmp_path, t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph, hidden=8, layers=2, heads=2)
    named = {k: t.data for k, t in params.tensors.items()}
    named["ptr.v"] = np.zeros((4, 1))  # wrong hidden dimension
    M.save_tensors(tmp_path / "w.bin", params.config, named)
    with pytest.raises(M.WeightFormatError, match="shape"):
        M.load_params(tmp_path / "w.bin")


def test_checkpoint_roundtrip(tmp_path, t5):
    graph = tiny_graph(t5)
    label = VarOrder((2, 0, 1, 4, 3))
    cfg = M.ModelConfig(feature_dim=graph.features.shape[1], hidden=8, layers=2, heads=2)
    params = M.init_params(cfg, seed=2)
    tcfg = M.TrainConfig(epochs=2, batch_size=1, learning_rate=1e-2, seed=2)
    params, _, opt_state = M.train([(graph, label)], tcfg, params=params)
    M.save_checkpoint(params, opt_state, 2, tmp_path / "ck.bin")
    p2, s2, epoch = M.load_checkpoint(tmp_path / "ck.bin")
    assert epoch == 2
    assert s2["step"] == opt_state["step"]
    # resuming twice produces identical continuations
    ra, _, _ = M.train([(graph, label)], tcfg, params=p2, optimizer_state=s2, start_epoch=2)
    p3, s3, _ = M.load_checkpoint(tmp_path / "ck.bin")
    rb, _, _ = M.train([(graph, label)], tcfg, params=p3, optimizer_state=s3, start_epoch=2)
    for k in ra.tensors:
        assert np.array_equal(ra.tensors[k].data, rb.tensors[k].data)


def test_train_diverges_raises(t5):
    graph = tiny_graph(t5)
    label = VarOrder((2, 0, 1, 4, 3))
    params = tiny_params(graph)
    params["ptr.v"].data[:] = np.nan
    cfg = M.TrainConfig(epochs=1, batch_size=1, learning_rate=1e-3, seed=0)
    with pytest.raises(M.TrainingDiverged):
        M.train([(graph, label)], cfg, params=params)


def saved_weights(path, t5, kind):
    """Save tiny weights as a params file or a checkpoint; return the params
    and the matching loader."""
    params = tiny_params(tiny_graph(t5), hidden=4, layers=1, heads=2)
    if kind == "params":
        M.save_params(params, path)
        return params, M.load_params
    opt_state = {
        "m": {k: np.zeros_like(t.data) for k, t in params.tensors.items()},
        "v": {k: np.zeros_like(t.data) for k, t in params.tensors.items()},
        "step": 3,
    }
    M.save_checkpoint(params, opt_state, 1, path)
    return params, M.load_checkpoint


@pytest.mark.parametrize("kind", ["params", "checkpoint"])
def test_every_truncation_raises_weight_format_error(tmp_path, t5, kind):
    path = tmp_path / "full.bin"
    _, load = saved_weights(path, t5, kind)
    data = path.read_bytes()
    load(path)  # the whole file loads
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(M.WeightFormatError, match="byte"):
            load(cut)


def test_garbled_config_raises_weight_format_error(tmp_path, t5):
    graph = tiny_graph(t5)
    params = tiny_params(graph, hidden=4, layers=1, heads=2)
    path = tmp_path / "w.bin"
    M.save_params(params, path)
    data = bytearray(path.read_bytes())
    data[12] = 0xFF  # first byte of the config block: not UTF-8
    path.write_bytes(bytes(data))
    with pytest.raises(M.WeightFormatError, match="byte 12"):
        M.load_params(path)


@pytest.mark.parametrize("kind", ["params", "checkpoint"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weight_raises_weight_format_error(tmp_path, t5, kind, value):
    path = tmp_path / "w.bin"
    params, load = saved_weights(path, t5, kind)
    load(path)
    # overwrite the last value of 'ptr.v' in the saved bytes
    data = bytearray(path.read_bytes())
    name = b"ptr.v"
    at = data.index(name) + len(name)
    shape = params.tensors["ptr.v"].data.shape
    end = at + 1 + 4 * len(shape) + 4 * int(np.prod(shape))
    data[end - 4 : end] = np.float32(value).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(M.WeightFormatError, match="non-finite value in 'ptr.v'"):
        load(path)


def test_too_many_dimensions_raises_weight_format_error(tmp_path):
    import struct

    blob = b"feature_dim=1\nhidden=2\nlayers=1\nheads=1\n"
    data = (
        b"BSQW"
        + struct.pack("<II", 1, len(blob))
        + blob
        + struct.pack("<IH", 1, 1)
        + b"x"
        + struct.pack("<B", 65)  # numpy allows at most 64 dimensions
        + struct.pack("<I", 1) * 65
        + struct.pack("<f", 0.0)
    )
    path = tmp_path / "w.bin"
    path.write_bytes(data)
    with pytest.raises(M.WeightFormatError, match="shape of 'x' at byte"):
        M.load_tensors(path)
