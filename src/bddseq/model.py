"""Attention-based graph encoder and LSTM pointer decoder.

The encoder runs multi-head attention message passing over the circuit graph
(augmented with reverse edges and self-loops), concatenating heads between
layers and averaging them at the last layer, with a residual connection per
layer. The decoder is an LSTM that, at each step, consumes the previously
selected input's embedding, attends over the primary-input embeddings, masks
already-chosen positions, and emits log-probabilities over the rest.

Training and search lay a batch of graphs out once, as one `Encoded`
record from `batch_layout`. The batch's graphs are encoded as one
disjoint-union graph; attention normalises per destination node, so the
union changes no node's embedding. The pointer keys of every graph's primary
inputs are computed once per batch and padded to the largest input count.
Each decoder step is one `decoder_advance` over B rows, each row against its
own (P, H) block of keys, gathered per row from the record: a training
sample's graph, a greedy row's graph, or a beam's one graph. Padded and
already chosen inputs are masked. The step is two fused autodiff ops, `lstm`
and `pointer`, whose hand-written VJPs compute their shared intermediates
once per backward pass and give the same bits as the elementary LSTM and
attention ops composed. Teacher forcing reads a record its caller laid out:
`train` lays its validation set out once per epoch, as one batch, for both
the validation loss and `eval_fn`'s greedy decode.

Desk-scale defaults are hidden=64 / 3 layers / 4 heads / batch 8; the study
this reproduces ran hidden=512 / 6 layers at batch 16.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import log as _ln
from math import prod

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .bdd import VarOrder
from .graph import CircuitGraph, disjoint_union


class WeightFormatError(Exception):
    """Unreadable or incompatible weight file."""


class TrainingDiverged(Exception):
    """The loss became non-finite."""


@dataclass
class ModelConfig:
    feature_dim: int
    hidden: int = 64
    layers: int = 3
    heads: int = 4

    def __post_init__(self):
        for name in ("feature_dim", "hidden", "layers", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")

    def head_dim(self, layer: int) -> int:
        # concatenated heads keep width `hidden`; the averaged last layer
        # gives each head the full width
        if layer == self.layers - 1:
            return self.hidden
        return self.hidden // self.heads


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h = config.hidden
    shapes: dict[str, tuple[int, ...]] = {
        "enc.in_proj.W": (config.feature_dim, h),
        "enc.in_proj.b": (1, h),
    }
    for i in range(config.layers):
        d = config.head_dim(i)
        shapes[f"enc.l{i}.W"] = (h, config.heads * d)
        shapes[f"enc.l{i}.a_src"] = (config.heads, d)
        shapes[f"enc.l{i}.a_dst"] = (config.heads, d)
    shapes.update(
        {
            "dec.start": (1, h),
            "dec.Wx": (h, 4 * h),
            "dec.Wh": (h, 4 * h),
            "dec.b": (1, 4 * h),
            "ptr.Wq": (h, h),
            "ptr.Wk": (h, h),
            "ptr.v": (h, 1),
        }
    )
    return shapes


def init_params(config: ModelConfig, seed: int = 42) -> ModelParams:
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        else:
            fan_in = shape[0]
            data = rng.standard_normal(shape) / np.sqrt(fan_in)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config=config, tensors=tensors)


def message_edges(graph: CircuitGraph) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of each edge followed by its reverse, then one self-loop
    per node.

    Graphs from `blif2graph` and `disjoint_union` have unique, acyclic edges,
    so no message repeats. The order sets the summation order of the
    per-node sums in `encode`, and with it the bits of the embeddings.
    """
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(graph.num_nodes, dtype=np.int64)
    return (
        np.concatenate([edges.ravel(), loops]),
        np.concatenate([edges[:, ::-1].ravel(), loops]),
    )


def _segment_max(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    out = np.full((n,) + values.shape[1:], -np.inf)
    np.maximum.at(out, idx, values)
    return out


def encode(graph: CircuitGraph, params: ModelParams) -> Tensor:
    """Node embeddings of shape (num_nodes, hidden); a bare array under `no_grad()`."""
    cfg = params.config
    if graph.features.shape[1] != cfg.feature_dim:
        raise ValueError(
            f"feature width {graph.features.shape[1]} does not match "
            f"model feature_dim {cfg.feature_dim}"
        )
    src, dst = message_edges(graph)
    n = graph.num_nodes
    x = Tensor(graph.features)
    h = ad.add(ad.matmul(x, params["enc.in_proj.W"]), params["enc.in_proj.b"])
    for layer in range(cfg.layers):
        w = params[f"enc.l{layer}.W"]
        a_src = params[f"enc.l{layer}.a_src"]
        a_dst = params[f"enc.l{layer}.a_dst"]
        proj = ad.matmul(h, w)  # (N, heads*d)
        s_src = ad.heads_dot(proj, a_src, cfg.heads)  # (N, heads)
        s_dst = ad.heads_dot(proj, a_dst, cfg.heads)
        e = ad.leaky_relu(
            ad.add(ad.gather_rows(s_src, src), ad.gather_rows(s_dst, dst))
        )  # (E, heads)
        # per-destination softmax; the max shift is constant w.r.t. gradients
        shift = _segment_max(ad.value(e), dst, n)[dst]
        ex = ad.exp(ad.sub(e, Tensor(shift)))
        denom = ad.scatter_add_rows(ex, dst, n)  # (N, heads)
        alpha = ad.div(ex, ad.gather_rows(denom, dst))
        msg = ad.heads_scale(ad.gather_rows(proj, src), alpha, cfg.heads)
        agg = ad.scatter_add_rows(msg, dst, n)  # (N, heads*d)
        if layer == cfg.layers - 1:
            blocks = np.concatenate(
                [np.eye(cfg.hidden) / cfg.heads for _ in range(cfg.heads)], axis=0
            )
            agg = ad.matmul(agg, Tensor(blocks))  # average heads
        h = ad.add(ad.tanh(agg), h)  # residual
    return h


def pi_embeddings(graph: CircuitGraph, embeddings: Tensor) -> Tensor:
    return ad.gather_rows(embeddings, np.asarray(graph.pi_positions, dtype=np.int64))


def pointer_keys(pi_embs: Tensor, params: ModelParams) -> Tensor:
    """Pointer-attention keys of the primary inputs, (P, H)."""
    return ad.matmul(pi_embs, params["ptr.Wk"])


def decoder_advance(
    hidden: Tensor, cell: Tensor, prev_emb: Tensor, keys: Tensor, params: ModelParams
) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM step for B sequences at once, then pointer attention.

    hidden, cell and prev_emb are (B, H) tensors or arrays (prev_emb may be
    the one start row), and keys are (B, P, H), one block of P pointer keys
    per sequence. The step is four autodiff nodes: the fused `ad.lstm`, a
    slice each for hidden and cell, and the fused `ad.pointer`. Returns the
    raw pointer scores as a (B*P, 1) column, row b*P + p for sequence b and
    input p, and the advanced hidden and cell states: Tensors, or bare
    arrays under `no_grad()`.
    """
    hdim = params.config.hidden
    state = ad.lstm(
        prev_emb, hidden, cell, params["dec.Wx"], params["dec.Wh"], params["dec.b"]
    )  # (B, 2H)
    hidden, cell = ad.slice_cols(state, 0, hdim), ad.slice_cols(state, hdim, 2 * hdim)
    return ad.pointer(hidden, params["ptr.Wq"], keys, params["ptr.v"]), hidden, cell


MASK_VALUE = -1e9


@dataclass
class Encoded:
    """A batch of B graphs laid out for the decoder by `batch_layout`."""

    pi_embs: Tensor  # (sum of P, H) primary-input embeddings of all graphs
    starts: np.ndarray  # (B,) each graph's first row in pi_embs
    keys: Tensor  # (B, P, H) pointer keys padded to the largest input count
    real: np.ndarray  # (B, P) bool, the real inputs; padded keys repeat real ones


def batch_layout(graphs, params: ModelParams) -> Encoded:
    """Encode B graphs as one disjoint union and lay out their primary inputs
    for a batched decoder. The record holds Tensors, or bare arrays under
    `no_grad()`.
    """
    sizes = np.array([graph.num_pis for graph in graphs])
    union = disjoint_union(graphs)
    pis = pi_embeddings(union, encode(union, params))
    starts = np.cumsum(sizes) - sizes
    real = np.arange(sizes.max()) < sizes[:, None]
    keys = ad.gather_rows(
        pointer_keys(pis, params), np.where(real, starts[:, None] + np.arange(real.shape[1]), 0)
    )
    return Encoded(pis, starts, keys, real)


def forward_teacher_forced(
    encoded: Encoded, labels, params: ModelParams
) -> tuple[Tensor, np.ndarray]:
    """Log-probabilities of the label tokens of a minibatch under teacher forcing.

    encoded is the `batch_layout` of B graphs and labels holds one VarOrder
    per graph. Step t is one `decoder_advance` over all B samples, each fed
    the embedding of its previous label token against its own keys; inputs
    beyond a sample's count and inputs already chosen are masked with
    MASK_VALUE. Returns the (T, B) log-probabilities, row t for step t, with
    T the largest input count, and the (T, B) 0/1 mask of real steps: a
    sample with P inputs has T - P padded steps at the end.
    """
    b, t_len = encoded.real.shape  # real: (B, T), real inputs and real steps
    tokens = np.zeros((t_len, b), dtype=np.int64)  # padded steps pick input 0
    for i, (size, label) in enumerate(zip(encoded.real.sum(axis=1), labels, strict=True)):
        if sorted(label.permutation) != list(range(size)):
            raise ValueError("label does not permute the primary inputs")
        tokens[:size, i] = label.permutation
    masks = np.empty((t_len, b, t_len))
    masks[0] = np.where(encoded.real, 0.0, MASK_VALUE)
    hidden = cell = Tensor(np.zeros((b, params.config.hidden)))
    prev = params["dec.start"]
    raws = []
    for t in range(t_len):
        if t:
            masks[t] = masks[t - 1]
            masks[t, np.arange(b), tokens[t - 1]] = MASK_VALUE
            prev = ad.gather_rows(encoded.pi_embs, encoded.starts + tokens[t - 1])
        raw, hidden, cell = decoder_advance(hidden, cell, prev, encoded.keys, params)
        raws.append(raw)
    log_probs = ad.log_softmax_pick(ad.concat_rows(raws), masks, tokens)
    return log_probs, encoded.real.T.astype(np.float64)


def position_weight(t: int) -> float:
    """Early positions weigh more; t is 0-based."""
    return 1.0 / _ln(t + 2)


def loss(log_probs: Tensor, mask, weights) -> Tensor:
    """Mean over the batch of mask-normalized weighted negative log-likelihoods.

    log_probs and mask are (T, B), one column per sample; weights holds at
    least one weight per step.
    """
    mask = np.asarray(mask, dtype=np.float64)
    t_len, batch = mask.shape
    if batch == 0:
        raise ValueError("empty batch")
    denom = mask.sum(axis=0)
    if not denom.all():
        raise ZeroDivisionError("sample with all-zero mask")
    w = np.asarray(weights[:t_len], dtype=np.float64)[:, None]
    return ad.tsum(ad.mul(log_probs, Tensor(-w * mask / denom / batch)))


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 3e-3  # reference study used 1e-5 at full scale
    seed: int = 42
    uniform_weights: bool = False  # disable the early-position emphasis

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


def sample_loss_terms(encoded: Encoded, labels, params, uniform_weights=False):
    """(log-probabilities, mask, weights) of a laid-out minibatch and its
    labels, the arguments of `loss`."""
    lps, mask = forward_teacher_forced(encoded, labels, params)
    ws = [1.0 if uniform_weights else position_weight(t) for t in range(len(mask))]
    return lps, mask, ws


def train(
    dataset,
    config: TrainConfig,
    params: ModelParams,
    val_dataset=None,
    eval_fn=None,
    optimizer_state=None,
    start_epoch: int = 0,
):
    """Adam training with teacher forcing; deterministic for a fixed seed.

    dataset and val_dataset are sequences of (CircuitGraph, VarOrder). Each
    epoch lays the validation set out once, as one no-grad `batch_layout`,
    for its teacher-forced loss; eval_fn(params, encoded, labels) gets that
    record and the labels, and may return extra per-epoch metrics such as
    rank correlations of decoded orders. Returns (params, history,
    optimizer state) where history has one row per epoch.
    """
    if not dataset:
        raise ValueError("empty dataset")
    opt = Adam(params.tensors, lr=config.learning_rate)
    if optimizer_state is not None:
        opt.m = {k: v.astype(np.float64) for k, v in optimizer_state["m"].items()}
        opt.v = {k: v.astype(np.float64) for k, v in optimizer_state["v"].items()}
        opt.step_count = int(optimizer_state["step"])
    history = []
    for epoch in range(start_epoch, start_epoch + config.epochs):
        rng = np.random.default_rng((config.seed, epoch))
        shuffled = [dataset[i] for i in rng.permutation(len(dataset))]
        epoch_losses = []
        for start in range(0, len(shuffled), config.batch_size):
            opt.zero_grad()
            graphs, labels = zip(*shuffled[start : start + config.batch_size])
            encoded = batch_layout(graphs, params)
            batch_loss = loss(*sample_loss_terms(encoded, labels, params, config.uniform_weights))
            value = batch_loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {value} at epoch {epoch}")
            batch_loss.backward()
            opt.step()
            epoch_losses.append(value)
        row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val_dataset:
            graphs, labels = zip(*val_dataset)
            with ad.no_grad():  # one layout of the whole set serves both checks
                encoded = batch_layout(graphs, params)
                terms = sample_loss_terms(encoded, labels, params, config.uniform_weights)
                row["val_loss"] = loss(*terms).item()
            if eval_fn is not None:
                row.update(eval_fn(params, encoded, labels))
        history.append(row)
    opt_state = {"m": opt.m, "v": opt.v, "step": opt.step_count}
    return params, history, opt_state


# -- persistence ----------------------------------------------------------------

_MAGIC = b"BSQW"
_VERSION = 1


def _config_blob(config: ModelConfig) -> bytes:
    text = (
        f"feature_dim={config.feature_dim}\n"
        f"hidden={config.hidden}\n"
        f"layers={config.layers}\n"
        f"heads={config.heads}\n"
    )
    return text.encode("utf-8")


def _parse_config(blob: bytes, offset: int) -> ModelConfig:
    fields = {}
    try:
        for line in blob.decode("utf-8").splitlines():
            if line.strip():
                key, value = line.split("=", 1)
                fields[key.strip()] = int(value)
        return ModelConfig(**{k: fields[k] for k in ("feature_dim", "hidden", "layers", "heads")})
    except KeyError as exc:
        raise WeightFormatError(f"config missing field {exc}") from exc
    except ValueError as exc:  # includes undecodable bytes
        raise WeightFormatError(f"bad config block at byte {offset}: {exc}") from exc


def save_tensors(path, config: ModelConfig, named: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        blob = _config_blob(config)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(named)))
        for name, data in named.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            arr = np.asarray(data, dtype=np.float32)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes(order="C"))


class _Reader:
    """Bounds-checked reads that name the byte offset of a short field."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        if size > len(self.data) - self.pos:
            raise WeightFormatError(
                f"truncated at byte {self.pos}: {what} needs {size} bytes, "
                f"{len(self.data) - self.pos} left"
            )
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def load_tensors(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic = reader.take(4, "magic")
    if magic != _MAGIC:
        raise WeightFormatError(f"bad magic {magic!r}; not a weight file")
    version = reader.unpack("<I", "version")
    if version != _VERSION:
        raise WeightFormatError(f"unsupported format version {version}")
    blob_len = reader.unpack("<I", "config length")
    config_at = reader.pos
    config = _parse_config(reader.take(blob_len, "config block"), config_at)
    count = reader.unpack("<I", "tensor count")
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_at = reader.pos
        name_bytes = reader.take(reader.unpack("<H", "name length"), "tensor name")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"bad tensor name at byte {name_at}") from exc
        shape_at = reader.pos
        rank = reader.unpack("<B", f"rank of '{name}'")
        shape = tuple(reader.unpack("<I", f"shape of '{name}'") for _ in range(rank))
        data = np.frombuffer(reader.take(4 * prod(shape), f"data of '{name}'"), np.float32)
        if not np.isfinite(data).all():
            raise WeightFormatError(f"non-finite value in '{name}'")
        try:
            named[name] = data.reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dimensions than numpy allows
            raise WeightFormatError(f"bad shape of '{name}' at byte {shape_at}") from exc
    return config, named


def save_params(params: ModelParams, path) -> None:
    save_tensors(
        path, params.config, {k: t.data for k, t in params.tensors.items()}
    )


def _load_checked(path, checkpoint: bool):
    """Parameters of a weight file, and all its tensors by name.

    Every tensor the file's config implies must be present with its shape;
    a checkpoint must also hold both Adam moments of each and `opt.meta`.
    A WeightFormatError names the file.
    """
    try:
        config, named = load_tensors(path)
        # each layer has three tensors: a corrupt layer count fails here, before
        # expected_shapes spells out a shape per layer
        if 3 * config.layers > len(named):
            raise WeightFormatError(
                f"config has {config.layers} layers; the file holds {len(named)} tensors"
            )
        shapes = expected_shapes(config)
        expected = dict(shapes)
        if checkpoint:
            for moment in ("m", "v"):
                expected.update({f"opt.{moment}.{k}": shape for k, shape in shapes.items()})
            expected["opt.meta"] = (2,)
        for name, shape in expected.items():
            if name not in named:
                raise WeightFormatError(f"missing tensor '{name}'")
            if named[name].shape != shape:
                raise WeightFormatError(
                    f"tensor '{name}' has shape {named[name].shape}, config implies {shape}"
                )
        tensors = {name: Tensor(named[name], requires_grad=True) for name in shapes}
    except WeightFormatError as exc:
        raise WeightFormatError(f"{path}: {exc}") from None
    return ModelParams(config=config, tensors=tensors), named


def load_params(path) -> ModelParams:
    return _load_checked(path, checkpoint=False)[0]


def save_checkpoint(params: ModelParams, opt_state, next_epoch: int, path) -> None:
    named = {k: t.data for k, t in params.tensors.items()}
    for k, v in opt_state["m"].items():
        named[f"opt.m.{k}"] = v
    for k, v in opt_state["v"].items():
        named[f"opt.v.{k}"] = v
    named["opt.meta"] = np.array([opt_state["step"], next_epoch], dtype=np.float64)
    save_tensors(path, params.config, named)


def load_checkpoint(path):
    params, named = _load_checked(path, checkpoint=True)
    opt_state = {
        "m": {k: named[f"opt.m.{k}"] for k in params.tensors},
        "v": {k: named[f"opt.v.{k}"] for k in params.tensors},
        "step": int(named["opt.meta"][0]),
    }
    return params, opt_state, int(named["opt.meta"][1])
