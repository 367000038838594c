"""Attention-based graph encoder and LSTM pointer decoder.

The encoder runs multi-head attention message passing over the circuit graph
(augmented with reverse edges and self-loops), concatenating heads between
layers and averaging them at the last layer, with a residual connection per
layer. The decoder is an LSTM that, at each step, consumes the previously
selected input's embedding, attends over the primary-input embeddings, masks
already-chosen positions, and emits log-probabilities over the rest.

Training teacher-forces a whole minibatch in one pass. Its graphs are encoded
as one disjoint-union graph; attention normalises per destination node, so
the union changes no node's embedding. The pointer keys of every sample's
primary inputs are computed once per batch, padded to the largest input
count, and each step is one `decoder_advance` over the B samples, with padded
and already chosen inputs masked.

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
        tensors[name] = Tensor(data, requires_grad=True, name=name)
    return ModelParams(config=config, tensors=tensors)


def message_edges(graph: CircuitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges plus reverses and self-loops, deduplicated."""
    seen = set()
    src, dst = [], []
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            if (a, b) not in seen:
                seen.add((a, b))
                src.append(a)
                dst.append(b)
    for i in range(graph.num_nodes):
        if (i, i) not in seen:
            seen.add((i, i))
            src.append(i)
            dst.append(i)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _segment_max(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    out = np.full((n,) + values.shape[1:], -np.inf)
    np.maximum.at(out, idx, values)
    return out


def encode(graph: CircuitGraph, params: ModelParams) -> Tensor:
    """Node embeddings of shape (num_nodes, hidden)."""
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
        shift = _segment_max(e.data, dst, n)[dst]
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

    hidden, cell and prev_emb are (B, H); keys are (P, H), shared by every
    sequence as in search, or (B, P, H), one block per sequence as in
    training. Returns the raw pointer scores as a (B*P, 1) column, row
    b*P + p for sequence b and input p, and the advanced hidden and cell
    states.
    """
    hdim = params.config.hidden
    z = ad.add(
        ad.add(ad.matmul(prev_emb, params["dec.Wx"]), ad.matmul(hidden, params["dec.Wh"])),
        params["dec.b"],
    )
    gate_i = ad.sigmoid(ad.slice_cols(z, 0, hdim))
    gate_f = ad.sigmoid(ad.slice_cols(z, hdim, 2 * hdim))
    gate_g = ad.tanh(ad.slice_cols(z, 2 * hdim, 3 * hdim))
    gate_o = ad.sigmoid(ad.slice_cols(z, 3 * hdim, 4 * hdim))
    cell = ad.add(ad.mul(gate_f, cell), ad.mul(gate_i, gate_g))
    hidden = ad.mul(gate_o, ad.tanh(cell))
    q = ad.matmul(hidden, params["ptr.Wq"])  # (B, H)
    att = ad.tanh(ad.outer_add(q, keys))  # (B*P, H)
    return ad.matmul(att, params["ptr.v"]), hidden, cell


MASK_VALUE = -1e9


def forward_teacher_forced(batch, params: ModelParams) -> tuple[Tensor, np.ndarray]:
    """Log-probabilities of the label tokens of a minibatch under teacher forcing.

    batch is a sequence of B (CircuitGraph, VarOrder) pairs. Step t is one
    `decoder_advance` over all B samples, each fed the embedding of its
    previous label token against its own keys; inputs beyond a sample's
    count and inputs already chosen are masked with MASK_VALUE. Returns the
    (T, B) log-probabilities, row t for step t, with T the largest input
    count, and the (T, B) 0/1 mask of real steps: a sample with P inputs
    has T - P padded steps at the end.
    """
    for graph, label in batch:
        if sorted(label.permutation) != list(range(graph.num_pis)):
            raise ValueError("label does not permute the primary inputs")
    sizes = np.array([graph.num_pis for graph, _ in batch])
    b, t_len = len(batch), int(sizes.max())
    union = disjoint_union([graph for graph, _ in batch])
    pis = pi_embeddings(union, encode(union, params))  # (sum of P, H)
    starts = np.cumsum(sizes) - sizes  # each sample's first row of pis
    tokens = np.zeros((t_len, b), dtype=np.int64)  # padded steps pick input 0
    for i, (_, label) in enumerate(batch):
        tokens[: sizes[i], i] = label.permutation
    real = np.arange(t_len) < sizes[:, None]  # (B, T): real inputs, real steps
    keys = ad.gather_rows(
        pointer_keys(pis, params), np.where(real, starts[:, None] + np.arange(t_len), 0)
    )  # (B, T, H); padded rows repeat a real key and are always masked
    masks = np.empty((t_len, b, t_len))
    masks[0] = np.where(real, 0.0, MASK_VALUE)
    hidden = cell = Tensor(np.zeros((b, params.config.hidden)))
    prev = params["dec.start"]
    raws = []
    for t in range(t_len):
        if t:
            masks[t] = masks[t - 1]
            masks[t, np.arange(b), tokens[t - 1]] = MASK_VALUE
            prev = ad.gather_rows(pis, starts + tokens[t - 1])
        raw, hidden, cell = decoder_advance(hidden, cell, prev, keys, params)
        raws.append(raw)
    log_probs = ad.log_softmax_pick(ad.concat_rows(raws), masks, tokens)
    return log_probs, real.T.astype(np.float64)


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


def sample_loss_terms(batch, params, uniform_weights=False):
    """(log-probabilities, mask, weights) of a minibatch, the arguments of `loss`."""
    lps, mask = forward_teacher_forced(batch, params)
    ws = [1.0 if uniform_weights else position_weight(t) for t in range(len(mask))]
    return lps, mask, ws


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def train(
    dataset,
    config: TrainConfig,
    params: ModelParams | None = None,
    val_dataset=None,
    eval_fn=None,
    optimizer_state=None,
    start_epoch: int = 0,
):
    """Adam training with teacher forcing; deterministic for a fixed seed.

    dataset and val_dataset are sequences of (CircuitGraph, VarOrder).
    eval_fn(params, val_dataset) may return extra per-epoch metrics such as
    rank correlations of decoded orders. Returns (params, history) where
    history has one row per epoch.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if params is None:
        feature_dim = dataset[0][0].features.shape[1]
        params = init_params(ModelConfig(feature_dim=feature_dim), seed=config.seed)
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
        for batch in _chunks(shuffled, config.batch_size):
            opt.zero_grad()
            batch_loss = loss(*sample_loss_terms(batch, params, config.uniform_weights))
            value = batch_loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}"
                )
            batch_loss.backward()
            opt.step()
            epoch_losses.append(value)
        row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val_dataset:
            total = 0.0
            with ad.no_grad():
                for batch in _chunks(list(val_dataset), config.batch_size):
                    terms = sample_loss_terms(batch, params, config.uniform_weights)
                    total += loss(*terms).item() * len(batch)
            row["val_loss"] = total / len(val_dataset)
        if eval_fn is not None and val_dataset:
            row.update(eval_fn(params, val_dataset))
        history.append(row)
    opt_state = {"m": opt.m, "v": opt.v, "step": opt.step_count}
    return params, history, opt_state


def perturb_params(params: ModelParams, scale: float, seed: int) -> None:
    """Jitter all parameters to a generic point (kinks off exact zeros)."""
    rng = np.random.default_rng(seed)
    for p in params.tensors.values():
        p.data += scale * rng.standard_normal(p.data.shape)


def gradient_check(
    batch,
    params: ModelParams,
    eps: float = 1e-5,
    probes_per_group: int = 8,
    seed: int = 0,
) -> dict[str, float]:
    """Central finite differences vs backward() on the teacher-forced loss of
    a minibatch of (CircuitGraph, VarOrder) pairs.

    Returns the vector-norm relative error per parameter group over the
    probed entries.
    """

    def value() -> float:
        with ad.no_grad():
            return loss(*sample_loss_terms(batch, params)).item()

    for p in params.tensors.values():
        p.grad = None
    loss(*sample_loss_terms(batch, params)).backward()
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, p in params.tensors.items():
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        idxs = rng.choice(flat.size, size=min(probes_per_group, flat.size), replace=False)
        fd = np.zeros(len(idxs))
        an = np.zeros(len(idxs))
        for k, i in enumerate(idxs):
            old = flat[i]
            flat[i] = old + eps
            up = value()
            flat[i] = old - eps
            down = value()
            flat[i] = old
            fd[k] = (up - down) / (2.0 * eps)
            an[k] = grad[i]
        denom = max(np.linalg.norm(fd), np.linalg.norm(an), 1e-12)
        errors[name] = float(np.linalg.norm(fd - an) / denom)
    return errors


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


def load_params(path) -> ModelParams:
    config, named = load_tensors(path)
    shapes = expected_shapes(config)
    tensors: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name not in named:
            raise WeightFormatError(f"missing tensor '{name}'")
        if named[name].shape != shape:
            raise WeightFormatError(
                f"tensor '{name}' has shape {named[name].shape}, "
                f"config implies {shape}"
            )
        tensors[name] = Tensor(named[name], requires_grad=True, name=name)
    return ModelParams(config=config, tensors=tensors)


def save_checkpoint(params: ModelParams, opt_state, next_epoch: int, path) -> None:
    named = {k: t.data for k, t in params.tensors.items()}
    for k, v in opt_state["m"].items():
        named[f"opt.m.{k}"] = v
    for k, v in opt_state["v"].items():
        named[f"opt.v.{k}"] = v
    named["opt.meta"] = np.array([opt_state["step"], next_epoch], dtype=np.float64)
    save_tensors(path, params.config, named)


def load_checkpoint(path):
    config, named = load_tensors(path)
    shapes = expected_shapes(config)
    expected = dict(shapes)
    for moment in ("m", "v"):
        expected.update({f"opt.{moment}.{k}": shape for k, shape in shapes.items()})
    expected["opt.meta"] = (2,)
    for name, shape in expected.items():
        if name not in named or named[name].shape != shape:
            raise WeightFormatError(f"checkpoint missing or misshaped '{name}'")
    tensors = {
        name: Tensor(named[name], requires_grad=True, name=name) for name in shapes
    }
    params = ModelParams(config=config, tensors=tensors)
    opt_state = {
        "m": {k: named[f"opt.m.{k}"] for k in shapes},
        "v": {k: named[f"opt.v.{k}"] for k in shapes},
        "step": int(named["opt.meta"][0]),
    }
    next_epoch = int(named["opt.meta"][1])
    return params, opt_state, next_epoch
