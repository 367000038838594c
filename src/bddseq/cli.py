"""Command-line pipeline: augment, label, train, predict, synth, eval.

Each command reads an optional flat key=value config file, embeds the
resolved configuration into every artifact it writes, and is deterministic
for a fixed config and seed (wall-time columns excepted; disable
record_times to make those reproducible too).

Fan-in is bounded in `augment`'s variants and in the model's graph
(`_graph`) only; labels, re-ranking and synthesis use the netlist as read.

Commands fail only by raising. `main` reports bad input (a malformed or
missing file, an out-of-range setting, a request the corpus cannot serve)
as one `error: ...` line on stderr and exit code 1. A problem with one
circuit of a corpus is a warning, not a failure: `augment` skips a source
that does not parse, and `label` and `eval` skip a circuit over the node
cap. A failed synthesis check is a bug and stays a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import operator
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import reduce
from pathlib import Path

import numpy as np

from . import bdd, model as M, search, synth
from .blif import BlifError, bound_fanin, negate_random_signals, parse_blif, read_blif, write_blif
from .corpus import (
    Corpus,
    CorpusEntry,
    RunConfig,
    check_circuit_id,
    comment_settings,
    csv_rows,
    load_corpus,
    names_to_order,
    order_to_names,
    read_orders,
    split_of,
    write_csv,
    write_jsonl,
    write_manifest,
    write_orders,
)
from .graph import FeatureConfig, blif2graph
from .metrics import kendall_tau, spearman_rho


def _clock(cfg: RunConfig, start: float) -> float:
    return time.perf_counter() - start if cfg.record_times else 0.0


def _graph(netlist, cfg: RunConfig):
    """The model's input graph: `netlist` with gates bounded to
    `decompose_arity` inputs, so each truth table fits `max_table_len`. A
    reduced ordered diagram is canonical, so bounding changes no diagram,
    count, label or synthesized circuit under an order; only a build's peak,
    and so a build near the node cap on a cover wider than the bound, differs."""
    features = FeatureConfig(cfg.max_table_len, cfg.normalize_structural)
    return blif2graph(bound_fanin(netlist, cfg.decompose_arity), features)


# the settings a label and its report row depend on: the keyword arguments
# of `bdd.generate_label_report`
LABEL_KEYS = ("seed", "node_cap", "ga_population", "ga_generations", "ga_tournament", "ga_mutation")


def _label_report(netlist, cfg: RunConfig) -> bdd.LabelReport:
    return bdd.generate_label_report(netlist, **{k: getattr(cfg, k) for k in LABEL_KEYS})


def _check_kept(path: Path, cfg: RunConfig) -> None:
    """ValueError when the file `path`, whose labels or rows a run without
    --force keeps, was written under another value of a label-making key."""
    written = comment_settings(path.read_text())
    for key in LABEL_KEYS:
        ours = str(getattr(cfg, key))  # as `RunConfig.to_text` writes it
        if written.get(key, ours) != ours:
            raise ValueError(
                f"{path}: written with {key} = {written[key]}, not {ours}; relabel with --force"
            )


# -- augment -------------------------------------------------------------------


def cmd_augment(args, cfg: RunConfig) -> None:
    if args.variants is not None:
        cfg = replace(cfg, variants_per_circuit=args.variants)  # checks the range
    in_dir, out_dir = Path(args.input), Path(args.out)
    sources = sorted(in_dir.glob("*.blif"))
    if not sources:
        raise ValueError(f"no .blif source in {in_dir}")
    variants = range(cfg.variants_per_circuit)
    ids = {p: [p.stem, *(f"{p.stem}_v{j}" for j in variants)] for p in sources}  # copy first
    # a circuit id names its file: two entries with one id would overwrite it
    made_from: dict[str, str] = {}
    for src_path in sources:
        check_circuit_id(src_path.stem, src_path.name)
        for cid in ids[src_path]:
            if made_from.setdefault(cid, src_path.name) != src_path.name:
                raise ValueError(
                    f"circuit id '{cid}' comes from both {made_from[cid]} and {src_path.name}"
                )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "blif").mkdir(exist_ok=True)
    entries = []
    for src_path in sources:
        try:
            source = parse_blif(src_path.read_text())
        except BlifError as exc:
            print(f"skipping {src_path.name}: {exc}", file=sys.stderr)
            continue
        base, *variant_ids = ids[src_path]
        copy_path = f"blif/{base}.blif"
        (out_dir / copy_path).write_text(write_blif(source))
        entries.append(
            CorpusEntry(base, copy_path, src_path.name, "copy", split_of(base, cfg.seed))
        )
        decomposed = bound_fanin(source, cfg.decompose_arity)  # negation copies it
        k = min(cfg.negations_per_variant, len(decomposed.internal_signals()))
        for j, variant_id in enumerate(variant_ids):
            rng_seed = _variant_seed(cfg.seed, base, j)
            variant = negate_random_signals(decomposed, k, rng_seed)
            variant.name = variant_id
            var_path = f"blif/{variant_id}.blif"
            (out_dir / var_path).write_text(write_blif(variant))
            entries.append(
                CorpusEntry(
                    variant_id,
                    var_path,
                    src_path.name,
                    f"bound_fanin({cfg.decompose_arity})+negate({k},seed={rng_seed})",
                    split_of(variant_id, cfg.seed),
                )
            )
    write_manifest(out_dir / "manifest.csv", entries, cfg)
    print(f"wrote {len(entries)} corpus entries to {out_dir}")


def _variant_seed(seed: int, base: str, j: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{base}:{j}".encode()).digest()[:4], "big")


# -- label ---------------------------------------------------------------------


def cmd_label(args, cfg: RunConfig) -> None:
    corpus = load_corpus(args.corpus)
    path = corpus.root / "label_report.csv"
    header = ["circuit_id", "winner", *bdd.HEURISTICS, "label_count", "time_seconds"]
    # by circuit id, (label names, report row): a circuit has both or neither,
    # and without --force a circuit with both is kept
    pairs = {}
    if not args.force:
        for old in (corpus.root / "labels.txt", path):
            if old.exists():
                _check_kept(old, cfg)
        if path.exists():
            kept = [row for _, row in csv_rows(path)]
            if kept[:1] != [header]:
                raise ValueError(f"{path}: header is not {header}; relabel with --force")
            pairs = {r[0]: (corpus.labels[r[0]], r) for r in kept[1:] if r[0] in corpus.labels}
    labeled = 0
    for entry in corpus.entries:
        if entry.circuit_id in pairs:
            continue
        netlist = corpus.load_netlist(entry)
        start = time.perf_counter()
        try:
            report = _label_report(netlist, cfg)
        except bdd.NodeCapExceeded:
            print(
                f"warning: {entry.circuit_id} exceeded the node cap; dropped",
                file=sys.stderr,
            )
            continue
        elapsed = _clock(cfg, start)
        labeled += 1
        row = [
            entry.circuit_id,
            report.winner,
            *(report.counts[name] for name in bdd.HEURISTICS),
            min(report.counts.values()),
            f"{elapsed:.6f}",
        ]
        pairs[entry.circuit_id] = (order_to_names(netlist, report.order), row)
    in_order = [pairs[e.circuit_id] for e in corpus.entries if e.circuit_id in pairs]
    write_orders(corpus.root / "labels.txt", {row[0]: names for names, row in in_order}, cfg)
    write_csv(path, header, [row for _, row in in_order], cfg)
    print(f"labeled {labeled} circuits ({len(in_order)} total labels)")


# -- train -----------------------------------------------------------------------


def _dataset(corpus: Corpus, cfg: RunConfig, split: str):
    data, no_inputs = [], 0
    for entry in corpus.by_split(split):
        names = corpus.labels.get(entry.circuit_id)
        if names is None:
            continue
        netlist = corpus.load_netlist(entry)
        if not netlist.primary_inputs:  # nothing to order
            no_inputs += 1
            continue
        data.append((_graph(netlist, cfg), names_to_order(netlist, names)))
    if no_inputs:
        print(f"skipping {no_inputs} {split} circuits with no primary inputs", file=sys.stderr)
    return data


def _decode_metrics(params, encoded, labels):
    """Mean rank correlations of greedy orders with the labels, over the
    graphs of two or more inputs; none when there is no such graph. encoded
    is the validation set's layout from `train`, decoded as one batch."""
    if all(len(label) < 2 for label in labels):
        return {}
    orders = search.greedy_decode(encoded, params)
    pairs = [(order, label) for order, label in zip(orders, labels) if len(label) >= 2]
    return {
        "val_tau": float(np.mean([kendall_tau(*p) for p in pairs])),
        "val_rho": float(np.mean([spearman_rho(*p) for p in pairs])),
    }


def cmd_train(args, cfg: RunConfig) -> None:
    corpus = load_corpus(args.corpus)
    train_set = _dataset(corpus, cfg, "train")
    val_set = _dataset(corpus, cfg, "val")
    if not train_set:
        raise ValueError("no labeled training circuits")
    feature_dim = train_set[0][0].features.shape[1]
    mconfig = M.ModelConfig(
        feature_dim=feature_dim, hidden=cfg.hidden, layers=cfg.layers, heads=cfg.heads
    )
    if args.resume:
        params, opt_state, start_epoch = M.load_checkpoint(args.resume)
        for key, ours in asdict(mconfig).items():
            if (theirs := getattr(params.config, key)) != ours:
                raise ValueError(f"{args.resume}: a checkpoint of {key} = {theirs}, not {ours}")
    else:
        params, opt_state, start_epoch = M.init_params(mconfig, seed=cfg.seed), None, 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / "best.bin"
    best_path.unlink(missing_ok=True)  # a best.bin belongs to the run beside it
    best_tau = None

    def keep_best(params, encoded, labels):  # saves best.bin as val_tau rises
        nonlocal best_tau
        metrics = _decode_metrics(params, encoded, labels)
        tau = metrics.get("val_tau")
        if tau is not None and (best_tau is None or tau > best_tau):
            best_tau = tau
            M.save_params(params, best_path)
        return metrics

    tconfig = M.TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
        uniform_weights=cfg.uniform_weights,
    )
    params, history, opt_state = M.train(
        train_set,
        tconfig,
        params=params,
        val_dataset=val_set,
        eval_fn=keep_best,
        optimizer_state=opt_state,
        start_epoch=start_epoch,
    )
    columns = ["epoch", "train_loss", "val_loss", "val_tau", "val_rho"]
    rows = [
        [row["epoch"], *(f"{row.get(k, float('nan')):.6f}" for k in columns[1:])] for row in history
    ]
    write_csv(out_dir / "loss_trace.csv", columns, rows, cfg)
    M.save_params(params, out_dir / "weights.bin")
    M.save_checkpoint(params, opt_state, start_epoch + cfg.epochs, out_dir / "checkpoint.bin")
    trained = f"trained {cfg.epochs} epochs on {len(train_set)} circuits; "
    scored = [row for row in history if "val_tau" in row]
    if not scored:
        print(trained + f"no val tau, so no best.bin was written: use {out_dir / 'weights.bin'}")
    else:
        best = max(scored, key=lambda row: row["val_tau"])  # the first of ties, as keep_best
        print(trained + f"best val tau {best['val_tau']:.4f} at epoch {best['epoch']}")


# -- predict ---------------------------------------------------------------------


def predict_order(netlist, params, mode: str, cfg: RunConfig, trace=None):
    """Decode candidates for the given mode and re-rank by BDD size.

    The model reads `_graph(netlist, cfg)`; the re-rank builds `netlist` as
    given. Beam modes add the greedy order when their search missed it.
    """
    if mode not in search.MODES:
        raise ValueError(f"unknown mode '{mode}'")
    beam_width, groups = search.MODES[mode]
    encoded = search.encode(_graph(netlist, cfg), params)
    config = search.SearchConfig(beam_width, groups, cfg.alpha, trace)
    candidates = [order for order, _ in search.diverse_beam_search(encoded, params, config)]
    if beam_width > 1:
        greedy = search.greedy_decode(encoded, params)[0]
        if greedy not in candidates:
            candidates.append(greedy)
    best = search.select_best_order(candidates, netlist, node_cap=cfg.node_cap)
    return best, len(candidates)


def _read_circuit(path: str):
    """The netlist of a command's one circuit, whose .model names a valid id."""
    netlist = read_blif(path)
    check_circuit_id(netlist.name, f"{path}: .model")
    return netlist


@contextmanager
def _within_cap(netlist, cfg: RunConfig):
    """Reports a diagram of `netlist` over the node cap as bad input."""
    try:
        yield
    except bdd.NodeCapExceeded as exc:
        raise ValueError(f"{netlist.name}: {exc} (node_cap = {cfg.node_cap})") from None


def cmd_predict(args, cfg: RunConfig) -> None:
    netlist = _read_circuit(args.circuit)
    params = M.load_params(args.weights)
    trace = [] if args.trace else None
    with _within_cap(netlist, cfg):
        order, n_candidates = predict_order(netlist, params, args.mode, cfg, trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_orders(
        out_dir / f"{netlist.name}.order",
        {netlist.name: order_to_names(netlist, order)},
        cfg,
    )
    if trace is not None:
        write_jsonl(out_dir / f"{netlist.name}.trace.jsonl", trace, cfg)
    print(
        f"{netlist.name}: {args.mode} explored {n_candidates} candidates -> "
        + " ".join(order_to_names(netlist, order))
    )


# -- synth -----------------------------------------------------------------------


def synthesize_circuit(netlist, order, cfg: RunConfig):
    """(circuit, node count, build + synthesis seconds) under `order`.

    Builds, synthesizes and verifies `netlist` as given: fan-in bounding
    would keep its input and output names and change no diagram (`_graph`).
    Every circuit, of any width, is checked symbolically against the
    diagrams it was synthesized from (`synth.verify_synthesis`), outside the
    timed part and the node cap, which judges the diagram, not the check;
    raises RuntimeError when an output line misses its root.
    """
    start = time.perf_counter()
    mgr, roots = bdd.build_from_netlist(netlist, order, node_cap=cfg.node_cap)
    circuit = synth.synthesize(mgr, roots, netlist)
    elapsed = _clock(cfg, start)
    mgr.node_cap = math.inf
    if not synth.verify_synthesis(circuit, mgr, roots, netlist):
        raise RuntimeError(f"synthesized circuit does not match netlist '{netlist.name}'")
    return circuit, bdd.node_count(mgr, roots), elapsed


def cmd_synth(args, cfg: RunConfig) -> None:
    netlist = _read_circuit(args.circuit)
    orders = read_orders(args.orders)
    if netlist.name not in orders:
        raise ValueError(f"no order for '{netlist.name}' in {args.orders}")
    order = names_to_order(netlist, orders[netlist.name])
    with _within_cap(netlist, cfg):
        circuit, nodes, elapsed = synthesize_circuit(netlist, order, cfg)
    real = synth.write_real(circuit)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{netlist.name}.real").write_text(real)
    write_csv(
        out_dir / f"{netlist.name}.metrics.csv",
        ["circuit", "mode", "gates", "lines", "qc", "transistor_cost", "time_seconds"],
        [
            [
                netlist.name,
                args.mode or "given-order",
                len(circuit.gates),
                circuit.lines,
                synth.quantum_cost(circuit),
                synth.transistor_cost(circuit),
                f"{elapsed:.6f}",
            ]
        ],
        cfg,
    )
    print(
        f"{netlist.name}: gates={len(circuit.gates)} lines={circuit.lines} "
        f"qc={synth.quantum_cost(circuit)} transistor={synth.transistor_cost(circuit)} "
        f"nodes={nodes}"
    )


# -- eval ------------------------------------------------------------------------


def cmd_eval(args, cfg: RunConfig) -> None:
    corpus = load_corpus(args.corpus)
    params = M.load_params(args.weights)
    test_entries = corpus.by_split("test")
    if args.circuits:
        wanted = set(args.circuits.split(","))
        tagged = {e.circuit_id: e.split for e in corpus.entries}
        unknown = sorted(wanted - tagged.keys())
        if unknown:
            raise ValueError(f"not in the corpus: {', '.join(unknown)}")
        for cid in sorted(wanted):
            if tagged[cid] in ("train", "val"):
                raise ValueError(
                    f"circuit '{cid}' is in the {tagged[cid]} split; "
                    "evaluation only covers held-out circuits"
                )
        test_entries = [e for e in test_entries if e.circuit_id in wanted]
    if not test_entries:
        raise ValueError("empty test split")

    # one row per method: each label maker in tie order (mode None), then each
    # model mode; order_seconds (the label report's, or inference) and the BDD
    # build plus synthesis (synth_seconds) add up to time_seconds
    methods = [(name, None) for name in bdd.HEURISTICS]
    methods += [(f"model_{mode}", mode) for mode in search.MODES]
    header = [
        "circuit",
        "method",
        "node_count",
        "qc",
        "order_seconds",
        "synth_seconds",
        "time_seconds",
        "tau",
        "rho",
    ]
    rows = []
    # by method, in circuit order: (nodes, qc, time_seconds, tau, rho), the
    # rank correlations None where there is no label to rank against
    records: dict[str, list[tuple]] = {}
    skipped = 0  # circuits with a diagram over the node cap

    for entry in test_entries:
        netlist = corpus.load_netlist(entry)
        n = len(netlist.primary_inputs)
        label_names = corpus.labels.get(entry.circuit_id)
        label = names_to_order(netlist, label_names) if label_names else None
        try:
            report = _label_report(netlist, cfg)
            built = []
            for method, mode in methods:
                if mode is None:
                    order = report.orders[method]
                    order_secs = report.seconds[method] if cfg.record_times else 0.0
                else:
                    start = time.perf_counter()
                    order = predict_order(netlist, params, mode, cfg)[0]
                    order_secs = _clock(cfg, start)
                built.append((method, order, order_secs, *synthesize_circuit(netlist, order, cfg)))
        except bdd.NodeCapExceeded as exc:
            print(f"warning: {entry.circuit_id}: {exc}; skipped", file=sys.stderr)
            skipped += 1
            continue
        for method, order, order_secs, circuit, nodes, synth_secs in built:
            ranks = None, None
            if label is not None and method.startswith("model") and n >= 2:
                pair = order.permutation, label.permutation
                ranks = kendall_tau(*pair), spearman_rho(*pair)
            qc, seconds = synth.quantum_cost(circuit), order_secs + synth_secs
            records.setdefault(method, []).append((nodes, qc, seconds, *ranks))
            rows.append(
                [
                    entry.circuit_id,
                    method,
                    nodes,
                    qc,
                    f"{order_secs:.6f}",
                    f"{synth_secs:.6f}",
                    f"{seconds:.6f}",
                    *("" if x is None else f"{x:.4f}" for x in ranks),
                ]
            )
    if skipped == len(test_entries):
        raise ValueError("every test circuit exceeded the node cap")

    # by method: (nodes, qc, time_seconds), the times added in circuit order
    # (`sum` compensates floats from Python 3.12, which would move their bits)
    totals = {}
    for method in sorted(records):
        node_counts, qcs, times, *rank_columns = zip(*records[method])
        totals[method] = sum(node_counts), sum(qcs), reduce(operator.add, times, 0.0)
        means = ([x for x in column if x is not None] for column in rank_columns)
        rows.append(
            [
                "TOTAL",
                method,
                *totals[method][:2],
                "",
                "",
                f"{totals[method][2]:.6f}",
                *(f"{np.mean(xs):.4f}" if xs else "" for xs in means),
            ]
        )
    for method in sorted(totals):
        if method.startswith("model") and totals[method][1] > 0:
            for base in bdd.HEURISTICS:
                # the TOTAL rows' times, as printed
                times = round(totals[base][2], 6), round(totals[method][2], 6)
                rows.append(
                    [
                        "RATIO",
                        f"{base}/{method}",
                        f"{totals[base][0] / max(totals[method][0], 1):.4f}",
                        f"{totals[base][1] / max(totals[method][1], 1):.4f}",
                        "",
                        "",
                        f"{times[0] / times[1]:.4f}" if all(times) else "",
                        "",
                        "",
                    ]
                )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "eval_report.csv", header, rows, cfg)
    print(
        f"evaluated {len(test_entries) - skipped} test circuits, skipped {skipped} "
        f"over the node cap -> {out_dir / 'eval_report.csv'}"
    )


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bddseq",
        description="BDD variable-ordering prediction and reversible synthesis",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="decompose and negate source circuits")
    p.add_argument("input", help="directory of .blif sources")
    p.add_argument(
        "--variants", type=int, help="variants per circuit (default: variants_per_circuit)"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("label", help="generate best-known orders for a corpus")
    p.add_argument("corpus", help="corpus directory with manifest.csv")
    p.add_argument("--force", action="store_true", help="relabel existing entries")
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("train", help="train the ordering model on a labeled corpus")
    p.add_argument("corpus")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict an ordering for one circuit")
    p.add_argument("circuit", help=".blif file")
    p.add_argument("--weights", required=True)
    p.add_argument(
        "--mode",
        choices=list(search.MODES),
        default="balance",
    )
    p.add_argument("--trace", action="store_true", help="dump a JSONL search trace")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("synth", help="synthesize a reversible circuit from an order")
    p.add_argument("circuit", help=".blif file")
    p.add_argument("orders", help="ordering file")
    p.add_argument("--mode", help="mode tag recorded in the metrics row")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("eval", help="compare heuristics and model modes on the test split")
    p.add_argument("corpus")
    p.add_argument("--weights", required=True)
    p.add_argument("--circuits", help="comma-separated circuit ids (test split only)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input gives one `error:` line and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)  # checks the range
        args.fn(args, cfg)
    except (OSError, ValueError, BlifError, M.WeightFormatError, M.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
