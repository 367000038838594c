import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddseq import model as M
from bddseq import synth
from bddseq.bdd import VarOrder, brute_force_optimal_order
from bddseq.blif import parse_blif, write_blif
from bddseq.cli import VERIFY_MAX_INPUTS, main, predict_order, synthesize_circuit
from bddseq.corpus import (
    RunConfig,
    names_to_order,
    order_to_names,
    read_csv,
    read_manifest,
    read_orders,
    split_of,
)
from bddseq.gen import desk_corpus, read_once_tree
from tests.conftest import PAIRS6_SRC


def write_sources(path: Path, count=8, seed=11, **kw):
    path.mkdir(parents=True, exist_ok=True)
    for net in desk_corpus(count, seed=seed, **kw):
        (path / f"{net.name}.blif").write_text(write_blif(net))


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "seed = 7\nepochs = 6\nga_generations = 4\nga_population = 6\n"
        "hidden = 16\nlayers = 2\nheads = 2\nrecord_times = false\n"
    )
    return path


def test_runconfig_roundtrip():
    cfg = RunConfig(seed=9, learning_rate=0.5, record_times=False)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        RunConfig.from_text("bogus = 1\n")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_runconfig_rejects_non_positive_batch(size):
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig.from_text(f"batch_size = {size}\n")


@pytest.mark.parametrize(
    "text, expected",
    [("1", True), ("TRUE", True), ("yes", True), ("0", False), ("False", False), ("no", False)],
)
def test_runconfig_reads_booleans(text, expected):
    assert RunConfig.from_text(f"record_times = {text}\n").record_times is expected


@pytest.mark.parametrize("text", ["maybe", "", "2", "off"])
def test_runconfig_rejects_other_booleans(text):
    with pytest.raises(ValueError, match="config line 2: 'record_times'"):
        RunConfig.from_text(f"seed = 3\nrecord_times = {text}\n")


@pytest.mark.parametrize(
    "line, needs", [("seed = x", "int"), ("seed = 1.5", "int"), ("learning_rate = fast", "float")]
)
def test_runconfig_rejects_bad_numbers(line, needs):
    key = line.split()[0]
    with pytest.raises(ValueError, match=f"config line 2: '{key}' is not a valid {needs}"):
        RunConfig.from_text(f"batch_size = 4\n{line}\n")


MANIFEST_TEXT = (
    "# seed = 7\n"
    "circuit_id,path,source,transform,split\n"
    "c0,blif/c0.blif,c0,identity,train\n"
    "c1,blif/c1.blif,c1,identity,test\n"
)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty manifest"),
        ("# only a comment\n\n", "empty manifest"),
        ("circuit_id,path\n", "line 1: unexpected manifest header"),
        (MANIFEST_TEXT + "c2,blif/c2.blif,c2,identity\n", "line 5: expected 5 fields, got 4"),
        (MANIFEST_TEXT.replace("test", "test,extra"), "line 4: expected 5 fields, got 6"),
    ],
)
def test_read_manifest_names_bad_line(tmp_path, text, match):
    path = tmp_path / "manifest.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_manifest(path)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, len(MANIFEST_TEXT)),
    st.integers(0, 12),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
def test_read_manifest_fuzz_raises_only_value_error(pos, cut, insert):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        path.write_text(MANIFEST_TEXT[:pos] + insert + MANIFEST_TEXT[pos + cut :])
        try:
            read_manifest(path)
        except ValueError:
            pass


def test_split_deterministic_and_proportioned():
    ids = [f"c{i}" for i in range(3000)]
    splits = [split_of(i, seed=42) for i in ids]
    assert splits == [split_of(i, seed=42) for i in ids]
    frac_train = splits.count("train") / len(splits)
    frac_val = splits.count("val") / len(splits)
    frac_test = splits.count("test") / len(splits)
    assert abs(frac_train - 0.7) < 0.03
    assert abs(frac_val - 0.2) < 0.03
    assert abs(frac_test - 0.1) < 0.03
    assert split_of("c0", seed=1) in ("train", "val", "test")


def test_order_name_translation(pairs6):
    order = VarOrder((3, 1, 0, 2, 4, 5))
    names = order_to_names(pairs6, order)
    assert names_to_order(pairs6, names) == order
    with pytest.raises(ValueError):
        names_to_order(pairs6, ["nope"] * 6)


def test_augment_zero_variants_copies_only(tmp_path, cfg_file):
    src = tmp_path / "src"
    write_sources(src, count=4, min_pis=4, max_pis=5)
    out = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(out)]) == 0
    entries = read_manifest(out / "manifest.csv")
    assert len(entries) == 4
    assert all(e.transform == "copy" for e in entries)


def test_augment_variants_default_from_config(tmp_path):
    src = tmp_path / "src"
    write_sources(src, count=3, min_pis=4, max_pis=5)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("seed = 7\nvariants_per_circuit = 1\nrecord_times = false\n")
    one = tmp_path / "one"
    assert main(["--config", str(cfg_file), "augment", str(src), "--out", str(one)]) == 0
    entries = read_manifest(one / "manifest.csv")
    assert [e.transform == "copy" for e in entries] == [True, False] * 3
    assert "variants_per_circuit = 1\n" in (one / "manifest.csv").read_text()
    # an explicit flag wins and is what the manifest's config block reports
    zero = tmp_path / "zero"
    assert main(
        ["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(zero)]
    ) == 0
    assert len(read_manifest(zero / "manifest.csv")) == 3
    assert "variants_per_circuit = 0\n" in (zero / "manifest.csv").read_text()


def test_augment_counts_and_determinism(tmp_path, cfg_file):
    src = tmp_path / "src"
    write_sources(src, count=10, min_pis=4, max_pis=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "3", "--out", str(out)]) == 0
    assert len(read_manifest(out_a / "manifest.csv")) == 40
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


@pytest.fixture
def labeled_corpus(tmp_path, cfg_file):
    src = tmp_path / "src"
    # 16 circuits at seed 3 put at least one circuit in every split
    write_sources(src, count=16, seed=3, min_pis=4, max_pis=6)
    (src / "pairs6.blif").write_text(PAIRS6_SRC)
    out = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(out)]) == 0
    assert main(["--config", str(cfg_file), "label", str(out)]) == 0
    return out


def test_label_matches_brute_force(labeled_corpus):
    orders = read_orders(labeled_corpus / "labels.txt")
    net = parse_blif((labeled_corpus / "blif" / "pairs6.blif").read_text())
    label = names_to_order(net, orders["pairs6"])
    from bddseq.bdd import build_from_netlist, node_count

    mgr, roots = build_from_netlist(net, label)
    _, optimum = brute_force_optimal_order(net)
    assert node_count(mgr, roots) == optimum == 8


def test_label_report_has_per_heuristic_counts(labeled_corpus):
    header, rows = read_csv(labeled_corpus / "label_report.csv")
    assert header[:6] == ["circuit_id", "winner", "natural", "sifting", "ga", "label_count"]
    assert all(int(r[5]) <= int(r[2]) for r in rows)


def test_label_skips_existing_without_force(labeled_corpus, cfg_file, capsys):
    assert main(["--config", str(cfg_file), "label", str(labeled_corpus)]) == 0
    out = capsys.readouterr().out
    assert "labeled 0 circuits" in out


@pytest.fixture
def trained_run(labeled_corpus, cfg_file, tmp_path):
    run = tmp_path / "run"
    assert main(["--config", str(cfg_file), "train", str(labeled_corpus), "--out", str(run)]) == 0
    return run


def test_train_outputs_and_metric_ranges(trained_run):
    header, rows = read_csv(trained_run / "loss_trace.csv")
    assert header == ["epoch", "train_loss", "val_loss", "val_tau", "val_rho"]
    for row in rows:
        assert -1.0 <= float(row[3]) <= 1.0
        assert -1.0 <= float(row[4]) <= 1.0
    assert (trained_run / "weights.bin").exists()
    assert (trained_run / "best.bin").exists()


def test_resume_is_deterministic(labeled_corpus, cfg_file, tmp_path, trained_run):
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    for out in (out_a, out_b):
        assert main(
            [
                "--config",
                str(cfg_file),
                "train",
                str(labeled_corpus),
                "--resume",
                str(trained_run / "checkpoint.bin"),
                "--out",
                str(out),
            ]
        ) == 0
    assert (out_a / "weights.bin").read_bytes() == (out_b / "weights.bin").read_bytes()
    assert (out_a / "loss_trace.csv").read_text() == (out_b / "loss_trace.csv").read_text()


def test_predict_modes_and_trace(labeled_corpus, cfg_file, trained_run, tmp_path):
    blif = sorted((labeled_corpus / "blif").glob("*.blif"))[0]
    out = tmp_path / "pred"
    assert main(
        [
            "--config",
            str(cfg_file),
            "predict",
            str(blif),
            "--weights",
            str(trained_run / "weights.bin"),
            "--mode",
            "balance",
            "--trace",
            "--out",
            str(out),
        ]
    ) == 0
    name = blif.stem
    orders = read_orders(out / f"{name}.order")
    net = parse_blif(blif.read_text())
    assert sorted(orders[name]) == sorted(net.primary_inputs)
    trace_lines = (out / f"{name}.trace.jsonl").read_text().splitlines()
    assert "run_config" in json.loads(trace_lines[0])
    kept = [json.loads(l) for l in trace_lines[1:]]
    final_step = max(e["step"] for e in kept)
    n_candidates = sum(1 for e in kept if e["step"] == final_step)
    assert n_candidates == min(20, len(kept))


def test_predict_efficiency_trace_has_one_record_per_input(
    labeled_corpus, cfg_file, trained_run, tmp_path
):
    blif = sorted((labeled_corpus / "blif").glob("*.blif"))[0]
    out = tmp_path / "pred"
    assert main(
        ["--config", str(cfg_file), "predict", str(blif), "--weights",
         str(trained_run / "weights.bin"), "--mode", "efficiency", "--trace", "--out", str(out)]
    ) == 0
    trace_lines = (out / f"{blif.stem}.trace.jsonl").read_text().splitlines()
    kept = [json.loads(l) for l in trace_lines[1:]]
    n = len(parse_blif(blif.read_text()).primary_inputs)
    assert [(e["step"], e["group"], e["beam"]) for e in kept] == [(i, 0, 0) for i in range(n)]
    assert sorted(e["token"] for e in kept) == list(range(n))
    names = read_orders(out / f"{blif.stem}.order")[blif.stem]
    order = names_to_order(parse_blif(blif.read_text()), names)
    assert tuple(e["token"] for e in kept) == order.permutation


def test_predict_rejects_unknown_mode(t5, trained_run, cfg_file):
    params = M.load_params(trained_run / "weights.bin")
    with pytest.raises(ValueError, match="unknown mode"):
        predict_order(t5, params, "fast", RunConfig.load(cfg_file))


def test_train_rejects_zero_heads(labeled_corpus, tmp_path):
    cfg = tmp_path / "heads0.txt"
    cfg.write_text("epochs = 1\nhidden = 16\nlayers = 2\nheads = 0\n")
    with pytest.raises(ValueError, match="heads"):
        main(["--config", str(cfg), "train", str(labeled_corpus), "--out", str(tmp_path / "run")])


def test_predict_reranks_with_bdd_counts(t5, trained_run, cfg_file):
    params = M.load_params(trained_run / "weights.bin")
    cfg = RunConfig.load(cfg_file)
    from bddseq.bdd import build_from_netlist, node_count
    from bddseq.search import greedy_decode
    from bddseq.graph import FeatureConfig, blif2graph

    order, n_candidates = predict_order(t5, params, "balance", cfg)
    graph = blif2graph(t5, FeatureConfig(max_table_len=cfg.max_table_len))
    greedy = greedy_decode(graph, params)
    mgr_b, roots_b = build_from_netlist(t5, order)
    mgr_g, roots_g = build_from_netlist(t5, greedy)
    assert node_count(mgr_b, roots_b) <= node_count(mgr_g, roots_g)
    assert n_candidates >= 20


def test_synth_command(labeled_corpus, cfg_file, trained_run, tmp_path):
    blif = sorted((labeled_corpus / "blif").glob("*.blif"))[0]
    pred = tmp_path / "pred"
    assert main(
        ["--config", str(cfg_file), "predict", str(blif), "--weights",
         str(trained_run / "weights.bin"), "--mode", "efficiency", "--out", str(pred)]
    ) == 0
    out = tmp_path / "synth"
    assert main(
        ["--config", str(cfg_file), "synth", str(blif), str(pred / f"{blif.stem}.order"),
         "--mode", "efficiency", "--out", str(out)]
    ) == 0
    real = (out / f"{blif.stem}.real").read_text()
    assert ".version 2.0" in real
    header, rows = read_csv(out / f"{blif.stem}.metrics.csv")
    assert header == ["circuit", "mode", "gates", "lines", "qc", "transistor_cost", "time_seconds"]
    assert rows[0][0] == blif.stem
    assert rows[0][6] == "0.000000"  # record_times = false


@pytest.mark.parametrize("extra", [0, 1])
def test_synthesis_verified_up_to_guard(monkeypatch, extra):
    n = VERIFY_MAX_INPUTS + extra
    net = read_once_tree(random.Random(n), n)
    real_synthesize = synth.synthesize

    def drop_one_gate(*args):
        circuit = real_synthesize(*args)
        circuit.gates.pop()
        return circuit

    monkeypatch.setattr(synth, "synthesize", drop_one_gate)
    cfg = RunConfig(record_times=False)
    if extra == 0:
        with pytest.raises(RuntimeError, match="does not match"):
            synthesize_circuit(net, VarOrder.identity(n), cfg)
    else:
        circuit, _, _ = synthesize_circuit(net, VarOrder.identity(n), cfg)
        assert not synth.verify_synthesis(circuit, net)  # wrong, yet returned


def test_eval_report_totals_and_refusal(labeled_corpus, cfg_file, trained_run, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--out", str(out)]
    ) == 0
    header, rows = read_csv(out / "eval_report.csv")
    methods = {}
    for row in rows:
        if row[0] not in ("TOTAL", "RATIO"):
            methods.setdefault(row[1], []).append(int(row[3]))
    for row in rows:
        if row[0] == "TOTAL":
            assert int(row[3]) == sum(methods[row[1]])
    # asking for a train-split circuit must be refused
    entries = read_manifest(labeled_corpus / "manifest.csv")
    train_id = next(e.circuit_id for e in entries if e.split == "train")
    rc = main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--circuits", train_id, "--out", str(out)]
    )
    assert rc == 1
    assert "split" in capsys.readouterr().err


def test_eval_verifies_every_circuit(labeled_corpus, cfg_file, trained_run, tmp_path, monkeypatch):
    real_synthesize = synth.synthesize

    def drop_one_gate(*args):
        circuit = real_synthesize(*args)
        circuit.gates.pop()
        return circuit

    monkeypatch.setattr(synth, "synthesize", drop_one_gate)
    with pytest.raises(RuntimeError, match="does not match"):
        main(
            ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
             str(trained_run / "weights.bin"), "--out", str(tmp_path / "eval")]
        )


def test_perfect_predictor_scores_one(labeled_corpus, cfg_file, monkeypatch):
    # feeding labels back as predictions must report tau = rho = 1.0
    from bddseq import cli
    from bddseq.cli import _dataset, _decode_metrics
    from bddseq.corpus import load_corpus

    corpus = load_corpus(labeled_corpus)
    cfg = RunConfig.load(cfg_file)
    data = _dataset(corpus, cfg, "train")[:3]
    labels_by_graph = {id(graph): label for graph, label in data}
    monkeypatch.setattr(
        cli.search, "greedy_decode", lambda graph, params: labels_by_graph[id(graph)]
    )
    metrics = _decode_metrics(None, data)
    assert metrics["val_tau"] == 1.0
    assert metrics["val_rho"] == 1.0


def test_predict_reproducible(labeled_corpus, cfg_file, trained_run, tmp_path):
    blif = sorted((labeled_corpus / "blif").glob("*.blif"))[1]
    outs = []
    for sub in ("p1", "p2"):
        out = tmp_path / sub
        assert main(
            ["--config", str(cfg_file), "predict", str(blif), "--weights",
             str(trained_run / "weights.bin"), "--mode", "balance", "--trace",
             "--out", str(out)]
        ) == 0
        outs.append(out)
    for name in (f"{blif.stem}.order", f"{blif.stem}.trace.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
