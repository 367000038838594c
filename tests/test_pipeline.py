import itertools
import json
import random
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bddseq import model as M
from bddseq import bdd, cli, search, synth
from bddseq.bdd import NodeCapExceeded, VarOrder, brute_force_optimal_order, build_from_netlist
from bddseq.blif import bound_fanin, evaluate, exhaustive_columns, parse_blif, write_blif
from bddseq.cli import (
    _dataset,
    _decode_metrics,
    main,
    predict_order,
    synthesize_circuit,
)
from bddseq.corpus import (
    MANIFEST_FIELDS,
    CorpusEntry,
    RunConfig,
    load_corpus,
    names_to_order,
    order_to_names,
    read_manifest,
    read_orders,
    split_of,
    write_manifest,
    write_orders,
)
from bddseq.gen import desk_corpus, random_cover_netlist, read_once_tree
from tests.conftest import PAIRS6_SRC, mutated, mutated_bytes, mutated_lines
from tests.reference import read_csv


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


def test_runconfig_rejects_a_key_set_twice():
    with pytest.raises(ValueError, match=r"^config lines 1 and 4 both set 'seed'$"):
        RunConfig.from_text("seed = 1\n# a comment\n\nseed = 2\n")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_runconfig_rejects_non_positive_batch(size):
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig.from_text(f"batch_size = {size}\n")


@pytest.mark.parametrize(
    "line",
    [
        "ga_population = 1",
        "ga_generations = -1",
        "ga_tournament = 0",
        "ga_mutation = 1.5",
        "ga_mutation = -0.2",
        "ga_mutation = nan",
    ],
)
def test_runconfig_rejects_bad_ga_settings(line):
    with pytest.raises(ValueError, match=line.split()[0]):
        RunConfig.from_text(f"{line}\n")


@pytest.mark.parametrize(
    "line",
    [
        "alpha = 2",
        "alpha = -0.1",
        "alpha = nan",
        "node_cap = 0",
        "epochs = -3",
        "epochs = 0",
        "learning_rate = nan",
        "learning_rate = inf",
        "learning_rate = 0",
        "learning_rate = -0.001",
        "hidden = 0",
        "layers = 0",
        "heads = 0",
        "decompose_arity = 1",
        "max_table_len = 2",
        "variants_per_circuit = -1",
        "negations_per_variant = -1",
        "seed = -1",
    ],
)
def test_runconfig_rejects_out_of_range_values(line):
    with pytest.raises(ValueError, match=f"^{line.split()[0]} must be"):
        RunConfig.from_text(f"{line}\n")


@pytest.mark.parametrize(
    "line",
    [
        "alpha = 0",
        "alpha = 1",
        "node_cap = 1",
        "epochs = 1",
        "decompose_arity = 2",
        "variants_per_circuit = 0",
        "learning_rate = 1e-9",
        "seed = 0",
    ],
)
def test_runconfig_accepts_boundary_values(line):
    key, _, value = line.partition(" = ")
    assert getattr(RunConfig.from_text(f"{line}\n"), key) == float(value)


@pytest.mark.parametrize("text", ["max_table_len = 5", "max_table_len = 8", "decompose_arity = 5"])
def test_runconfig_rejects_a_table_width_that_cannot_hold_a_gate(text):
    # the default decompose_arity of 4 needs tables of 16 entries
    with pytest.raises(ValueError, match="^max_table_len must be a power of two"):
        RunConfig.from_text(f"{text}\n")


def test_runconfig_accepts_the_smallest_table_width():
    cfg = RunConfig.from_text("max_table_len = 4\ndecompose_arity = 2\n")
    assert (cfg.max_table_len, cfg.decompose_arity) == (4, 2)


@pytest.mark.parametrize(
    "text, hidden, heads", [("hidden = 10\nheads = 4", 10, 4), ("heads = 3", 64, 3)]
)
def test_runconfig_rejects_a_hidden_width_that_heads_does_not_divide(text, hidden, heads):
    # without this check augment and label would run, and only train would fail
    with pytest.raises(ValueError, match=f"^hidden {hidden} must be divisible by heads {heads}$"):
        RunConfig.from_text(f"{text}\n")


def test_runconfig_accepts_a_hidden_width_that_heads_divides():
    cfg = RunConfig.from_text("hidden = 12\nheads = 4\n")
    assert (cfg.hidden, cfg.heads) == (12, 4)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--seed", "-1", "augment"], "seed"),
        (["augment", "--variants", "-1"], "variants_per_circuit"),
    ],
)
def test_cli_overrides_are_range_checked(argv, key, tmp_path, capsys):
    assert main(argv + [str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {key} must be at least 0, got -1\n"
    assert not (tmp_path / "out").exists()


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


# a valid value other than the default, where the default plus one is not
NON_DEFAULT = {"max_table_len": 32, "decompose_arity": 3, "hidden": 32, "heads": 2}


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_runconfig_reads_back_each_line_it_writes(field):
    other = {bool: lambda d: not d, int: lambda d: d + 1, float: lambda d: d / 2}
    value = NON_DEFAULT.get(field.name, other[type(field.default)](field.default))
    cfg = replace(RunConfig(), **{field.name: value})
    assert value != getattr(RunConfig(), field.name)
    (line,) = [line for line in cfg.to_text().splitlines() if line.startswith(f"{field.name} =")]
    again = RunConfig.from_text(line + "\n")
    assert again == cfg and type(getattr(again, field.name)) is type(field.default)


CONFIG_TEXT = RunConfig(seed=9, record_times=False).to_text()


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated(CONFIG_TEXT), mutated_lines(CONFIG_TEXT)))
def test_runconfig_fuzz_raises_only_value_error(text):
    try:
        RunConfig.from_text(text)
    except ValueError:
        pass


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


def orders_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.txt"
        write_orders(path, {"c17": ["G3", "G1", "G6"], "pairs6": ["x0", "x1"]}, RunConfig())
        return path.read_text()


ORDERS_TEXT = orders_text()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        mutated(ORDERS_TEXT).map(str.encode),
        mutated_lines(ORDERS_TEXT).map(str.encode),
        mutated_bytes(ORDERS_TEXT.encode()),
    )
)
def test_read_orders_fuzz_raises_only_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.txt"
        path.write_bytes(data)
        try:
            read_orders(path)
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
    with pytest.raises(ValueError, match="pairs6: .* does not permute the inputs"):
        names_to_order(pairs6, ["nope"] * 6)


@pytest.mark.parametrize(
    "names",
    [
        "x5 x5 x4 x3 x2 x1",  # a name twice, one missing
        "x5",  # too short
        "zz x4 x3 x2 x1 x0",  # an unknown name
    ],
)
def test_synth_rejects_order_that_does_not_permute_inputs(tmp_path, capsys, names):
    blif = tmp_path / "pairs6.blif"
    blif.write_text(PAIRS6_SRC)
    orders = tmp_path / "orders.txt"
    orders.write_text(f"pairs6 {names}\n")
    assert main(["synth", str(blif), str(orders), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: pairs6: order '{names}' does not permute the inputs\n"
    assert not (tmp_path / "out").exists()


BAD_PAIRS6_LABEL = "x5 x5 x4 x3 x2 x1"


def bad_label_corpus(tmp_path, cfg_file, split):
    """Three tree circuits for train and val, and pairs6 in `split` with a
    label that names x5 twice."""
    corpus = tmp_path / "corpus"
    (corpus / "blif").mkdir(parents=True)
    nets = desk_corpus(3, seed=5, min_pis=4, max_pis=5) + [parse_blif(PAIRS6_SRC)]
    entries = []
    for net, net_split in zip(nets, ("train", "train", "val", split)):
        path = f"blif/{net.name}.blif"
        (corpus / path).write_text(write_blif(net))
        entries.append(CorpusEntry(net.name, path, path, "copy", net_split))
    write_manifest(corpus / "manifest.csv", entries, RunConfig.load(cfg_file))
    labels = {net.name: net.primary_inputs for net in nets}
    labels["pairs6"] = BAD_PAIRS6_LABEL.split()
    write_orders(corpus / "labels.txt", labels)
    return corpus


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_label_that_does_not_permute_inputs(tmp_path, cfg_file, capsys, split):
    corpus = bad_label_corpus(tmp_path, cfg_file, split)
    run = tmp_path / "run"
    assert main(["--config", str(cfg_file), "train", str(corpus), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: pairs6: order '{BAD_PAIRS6_LABEL}' does not permute the inputs\n"
    assert not run.exists()


def test_eval_rejects_label_that_does_not_permute_inputs(tmp_path, cfg_file, capsys):
    corpus = bad_label_corpus(tmp_path, cfg_file, "test")
    cfg = RunConfig.load(cfg_file)
    feature_dim = _dataset(load_corpus(corpus), cfg, "train")[0][0].features.shape[1]
    weights = tmp_path / "weights.bin"
    mconfig = M.ModelConfig(feature_dim, cfg.hidden, cfg.layers, cfg.heads)
    M.save_params(M.init_params(mconfig, seed=0), weights)
    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(corpus), "--weights", str(weights),
         "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert err == f"error: pairs6: order '{BAD_PAIRS6_LABEL}' does not permute the inputs\n"
    assert not (out / "eval_report.csv").exists()


def test_augment_bounds_a_wide_general_cover(tmp_path):
    # one 6-input cover of four cubes, above the default decompose_arity of 4
    src = tmp_path / "src"
    src.mkdir()
    source = parse_blif(
        ".model wide6\n.inputs a b c d e f\n.outputs o\n.names a b c d e f o\n"
        "11-0-- 1\n-0-11- 1\n0--1-1 1\n--1-01 1\n.end\n"
    )
    (src / "wide6.blif").write_text(write_blif(source))
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        "seed = 7\nvariants_per_circuit = 1\nnegations_per_variant = 0\nrecord_times = false\n"
    )
    cfg = RunConfig.load(cfg_file)
    out = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--out", str(out)]) == 0
    [variant] = [e for e in read_manifest(out / "manifest.csv") if e.transform != "copy"]
    net = parse_blif((out / variant.path).read_text())
    assert len(net.gates) > 1
    assert all(g.arity <= cfg.decompose_arity for g in net.gates)
    columns = exhaustive_columns(6)
    assert evaluate(net, columns, 64) == evaluate(source, columns, 64)


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


def test_augment_bounds_each_source_once(tmp_path, cfg_file, monkeypatch):
    src = tmp_path / "src"
    write_sources(src, count=4, min_pis=4, max_pis=5)
    bound, calls = cli.bound_fanin, []

    def counted(netlist, max_arity):
        calls.append(netlist.name)
        return bound(netlist, max_arity)

    monkeypatch.setattr(cli, "bound_fanin", counted)
    out = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "3", "--out", str(out)]) == 0
    assert len(read_manifest(out / "manifest.csv")) == 16
    assert len(calls) == len(set(calls)) == 4  # once per source


@pytest.fixture
def labeled_corpus(tmp_path, cfg_file):
    src = tmp_path / "src"
    # 20 circuits at seed 0 put three circuits in the test split, so that
    # eval sums and ratios run over more than one
    write_sources(src, count=20, seed=0, min_pis=4, max_pis=6)
    (src / "pairs6.blif").write_text(PAIRS6_SRC)
    out = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(out)]) == 0
    assert main(["--config", str(cfg_file), "label", str(out)]) == 0
    splits = [e.split for e in read_manifest(out / "manifest.csv")]
    assert splits.count("test") >= 3 and "val" in splits
    return out


def test_label_matches_brute_force(labeled_corpus):
    orders = read_orders(labeled_corpus / "labels.txt")
    net = parse_blif((labeled_corpus / "blif" / "pairs6.blif").read_text())
    label = names_to_order(net, orders["pairs6"])
    from bddseq.bdd import node_count

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


def test_label_again_keeps_the_report(labeled_corpus, cfg_file, capsys):
    # a circuit the run skips keeps its report row, and the rows stay in
    # corpus order around the circuits labeled again: one that lost its
    # label, and another that lost its report row
    report, labels = labeled_corpus / "label_report.csv", labeled_corpus / "labels.txt"
    before = report.read_bytes(), labels.read_bytes()
    argv = ["--config", str(cfg_file), "label", str(labeled_corpus)]
    assert main(argv) == 0
    assert (report.read_bytes(), labels.read_bytes()) == before
    lines = labels.read_text().splitlines(keepends=True)
    listed = [i for i, line in enumerate(lines) if not line.startswith("#")]
    unlabeled = lines.pop(listed[len(listed) // 2]).split()[0]
    labels.write_text("".join(lines))
    lines = report.read_text().splitlines(keepends=True)
    listed = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    unreported = next(i for i in listed[1:] if not lines[i].startswith(unlabeled + ","))
    del lines[unreported]
    report.write_text("".join(lines))
    capsys.readouterr()
    assert main(argv) == 0
    assert "labeled 2 circuits" in capsys.readouterr().out
    assert (report.read_bytes(), labels.read_bytes()) == before


def test_label_restores_a_deleted_report(labeled_corpus, cfg_file, capsys):
    # a circuit keeps its label only with its row: with the report gone, every
    # circuit is labeled again, to the same labels and rows
    report, labels = labeled_corpus / "label_report.csv", labeled_corpus / "labels.txt"
    before = report.read_bytes(), labels.read_bytes()
    report.unlink()
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "label", str(labeled_corpus)]) == 0
    count = len(read_orders(labels))
    assert f"labeled {count} circuits ({count} total labels)" in capsys.readouterr().out
    assert [row[0] for row in read_csv(report)[1]] == list(read_orders(labels))
    assert (report.read_bytes(), labels.read_bytes()) == before


def test_label_force_drops_a_label_with_its_row(tmp_path, cfg_file, capsys):
    # a forced run under a lower node cap drops the old label of each circuit
    # it drops, as it drops the report row
    src, corpus = tmp_path / "src", tmp_path / "corpus"
    write_sources(src, count=4, seed=3, min_pis=5, max_pis=6)
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(corpus)]) == 0
    assert main(["--config", str(cfg_file), "label", str(corpus)]) == 0
    assert len(read_orders(corpus / "labels.txt")) == 4
    capped = tmp_path / "capped.txt"
    capped.write_text(cfg_file.read_text() + "node_cap = 8\n")
    capsys.readouterr()
    assert main(["--config", str(capped), "label", str(corpus), "--force"]) == 0
    dropped = capsys.readouterr().err.count("exceeded the node cap; dropped")
    labels = read_orders(corpus / "labels.txt")
    _, rows = read_csv(corpus / "label_report.csv")
    assert dropped == 3 and len(labels) == 1
    assert list(labels) == [row[0] for row in rows]


@pytest.mark.parametrize("key", cli.LABEL_KEYS)
def test_label_keeps_only_labels_of_its_own_settings(key, labeled_corpus, cfg_file, tmp_path, capsys):
    # a run without --force refuses to keep labels and rows made under another
    # value of a key that makes labels, and keeps them under another model
    files = [labeled_corpus / name for name in ("labels.txt", "label_report.csv")]
    before = read_orders(files[0]), read_csv(files[1])
    cfg = RunConfig.load(cfg_file)
    value = {"ga_mutation": 0.5, "node_cap": 1234}.get(key, getattr(cfg, key) + 1)
    other, model = tmp_path / "other.txt", tmp_path / "model.txt"
    other.write_text(replace(cfg, **{key: value}).to_text())
    model.write_text(replace(cfg, hidden=8, epochs=2, alpha=0.5).to_text())
    capsys.readouterr()
    assert main(["--config", str(other), "label", str(labeled_corpus)]) == 1
    assert capsys.readouterr().err == (
        f"error: {files[0]}: written with {key} = {getattr(cfg, key)}, not {value}; "
        "relabel with --force\n"
    )
    assert main(["--config", str(model), "label", str(labeled_corpus)]) == 0
    assert (read_orders(files[0]), read_csv(files[1])) == before
    files[0].unlink()  # the report is checked too
    assert main(["--config", str(other), "label", str(labeled_corpus)]) == 1
    assert f"error: {files[1]}: written with {key}" in capsys.readouterr().err
    assert main(["--config", str(other), "label", str(labeled_corpus), "--force"]) == 0


def test_label_keeps_labels_under_another_decompose_arity(labeled_corpus, cfg_file, tmp_path, capsys):
    # no label depends on fan-in bounding, so a run without --force under
    # another decompose_arity keeps every label and row and makes none
    files = [labeled_corpus / name for name in ("labels.txt", "label_report.csv")]
    before = read_orders(files[0]), read_csv(files[1])
    other = tmp_path / "other.txt"
    other.write_text(replace(RunConfig.load(cfg_file), decompose_arity=3).to_text())
    capsys.readouterr()
    assert main(["--config", str(other), "label", str(labeled_corpus)]) == 0
    assert capsys.readouterr().out == f"labeled 0 circuits ({len(before[0])} total labels)\n"
    assert (read_orders(files[0]), read_csv(files[1])) == before


@st.composite
def wide_covers(draw):
    """(netlist, bound): a random cover with a gate wider than the bound."""
    bound = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_pi, n_gates = rng.randint(4, 8), rng.randint(2, 6)
    net = random_cover_netlist(rng, n_pi, n_gates, max_arity=draw(st.integers(bound + 1, 6)))
    assume(any(len(gate.inputs) > bound for gate in net.gates))
    return net, bound


@settings(max_examples=100, deadline=None)
@given(wide_covers(), st.integers(0, 99))
def test_fanin_bounding_changes_no_label_and_no_circuit(case, seed):
    # a reduced ordered diagram is canonical: under each order, a netlist and
    # its fan-in-bounded copy give one diagram, so one label report (counts
    # and orders) and one synthesized circuit
    net, bound = case
    cfg = RunConfig(seed=seed, decompose_arity=bound, ga_population=6, ga_generations=4,
                    record_times=False)
    small = bound_fanin(net, bound)
    assert small.gates != net.gates
    report, small_report = cli._label_report(net, cfg), cli._label_report(small, cfg)
    assert (report.counts, report.orders) == (small_report.counts, small_report.orders)
    shuffled = list(range(len(net.primary_inputs)))
    random.Random(seed).shuffle(shuffled)
    for order in (report.order, VarOrder(tuple(shuffled))):
        assert synthesize_circuit(net, order, cfg) == synthesize_circuit(small, order, cfg)


COVER6_SRC = """.model cover6
.inputs a b c d e f
.outputs o
.names a b c d e f o
11-1-0 1
0-1-11 1
.end
"""


def test_synth_bounds_no_fanin(tmp_path, cfg_file, monkeypatch):
    # the diagram is built from the netlist as read, wider than decompose_arity
    bound, calls = cli.bound_fanin, []

    def counted(netlist, max_arity):
        calls.append(netlist.name)
        return bound(netlist, max_arity)

    monkeypatch.setattr(cli, "bound_fanin", counted)
    blif, orders = tmp_path / "cover6.blif", tmp_path / "cover6.order"
    blif.write_text(COVER6_SRC)
    orders.write_text("cover6 f e d c b a\n")
    assert RunConfig.load(cfg_file).decompose_arity < 6
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "synth", str(blif), str(orders), "--out", str(out)]) == 0
    assert (out / "cover6.real").exists() and calls == []


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


def test_best_bin_holds_the_first_epoch_at_the_highest_val_tau(
    labeled_corpus, cfg_file, tmp_path, capsys
):
    # the closing line names the best epoch E; a run of E + 1 epochs ends on
    # the weights that best.bin holds
    full = tmp_path / "full"
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "train", str(labeled_corpus), "--out", str(full)]) == 0
    epoch = int(re.search(r"at epoch (\d+)", capsys.readouterr().out).group(1))
    _, rows = read_csv(full / "loss_trace.csv")
    taus = [float(row[3]) for row in rows]
    assert epoch == taus.index(max(taus))
    short_cfg = tmp_path / "short.txt"
    short_cfg.write_text(replace(RunConfig.load(cfg_file), epochs=epoch + 1).to_text())
    short = tmp_path / "short"
    assert main(["--config", str(short_cfg), "train", str(labeled_corpus), "--out", str(short)]) == 0
    assert (short / "weights.bin").read_bytes() == (full / "best.bin").read_bytes()


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


def test_train_rejects_zero_heads(labeled_corpus, tmp_path, capsys):
    cfg = tmp_path / "heads0.txt"
    cfg.write_text("epochs = 1\nhidden = 16\nlayers = 2\nheads = 0\n")
    run = tmp_path / "run"
    assert main(["--config", str(cfg), "train", str(labeled_corpus), "--out", str(run)]) == 1
    assert capsys.readouterr().err == "error: heads must be at least 1, got 0\n"
    assert not run.exists()


def test_predict_reranks_with_bdd_counts(t5, trained_run, cfg_file):
    params = M.load_params(trained_run / "weights.bin")
    cfg = RunConfig.load(cfg_file)
    from bddseq.bdd import node_count
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


@pytest.mark.parametrize("n", [16, 17, 24])
def test_synthesis_verified_at_every_width(monkeypatch, n):
    # 16 inputs was the widest the exhaustive check covered
    net = read_once_tree(random.Random(n), n)
    cfg = RunConfig(record_times=False)
    synthesize_circuit(net, VarOrder.identity(n), cfg)  # the circuit as synthesized passes
    real_synthesize = synth.synthesize

    def drop_one_gate(*args):
        circuit = real_synthesize(*args)
        circuit.gates.pop()
        return circuit

    monkeypatch.setattr(synth, "synthesize", drop_one_gate)
    with pytest.raises(RuntimeError, match="does not match"):
        synthesize_circuit(net, VarOrder.identity(n), cfg)


def test_node_cap_judges_the_diagram_not_its_check(t5):
    # at the smallest cap the diagram is built under, the check's own nodes
    # pass the cap; synthesis verifies and returns all the same
    order = VarOrder.identity(len(t5.primary_inputs))
    for cap in itertools.count(1):
        try:
            mgr, roots = build_from_netlist(t5, order, node_cap=cap)
            break
        except NodeCapExceeded:
            pass
    with pytest.raises(NodeCapExceeded):
        synth.verify_synthesis(synth.synthesize(mgr, roots, t5), mgr, roots, t5)
    synthesize_circuit(t5, order, RunConfig(node_cap=cap, record_times=False))


def test_eval_report_totals_and_refusal(labeled_corpus, cfg_file, trained_run, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--out", str(out)]
    ) == 0
    header, rows = read_csv(out / "eval_report.csv")
    assert header[2:4] == ["node_count", "qc"] and header[7:] == ["tau", "rho"]
    methods = {}
    for row in rows:
        if row[0] not in ("TOTAL", "RATIO"):
            methods.setdefault(row[1], []).append(row)
    totals = [row for row in rows if row[0] == "TOTAL"]
    assert sorted(row[1] for row in totals) == sorted(methods)
    for row in totals:
        cells = methods[row[1]]
        for column in (2, 3):  # node_count and qc: exact sums
            assert int(row[column]) == sum(int(cell[column]) for cell in cells)
        for column in (7, 8):  # tau and rho: the mean of the circuits ranked
            if row[1] in bdd.HEURISTICS:
                assert row[column] == "" and all(cell[column] == "" for cell in cells)
            else:
                ranked = [float(cell[column]) for cell in cells if cell[column]]
                assert ranked and abs(float(row[column]) - np.mean(ranked)) <= 1e-4
    # asking for a train-split circuit must be refused
    entries = read_manifest(labeled_corpus / "manifest.csv")
    train_id = next(e.circuit_id for e in entries if e.split == "train")
    rc = main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--circuits", train_id, "--out", str(out)]
    )
    assert rc == 1
    assert "split" in capsys.readouterr().err


@pytest.mark.parametrize("record_times", [False, True])
def test_eval_ratio_rows_give_the_time_ratio(
    record_times, labeled_corpus, cfg_file, trained_run, tmp_path
):
    # heuristic over model, of the TOTAL rows' time_seconds; with no times
    # recorded both totals are 0 and the cell stays empty
    if record_times:
        cfg_file.write_text(cfg_file.read_text().replace("record_times = false", "record_times = true"))
    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--out", str(out)]
    ) == 0
    header, rows = read_csv(out / "eval_report.csv")
    column = header.index("time_seconds")
    totals = {row[1]: float(row[column]) for row in rows if row[0] == "TOTAL"}
    ratios = [row for row in rows if row[0] == "RATIO"]
    assert len(ratios) == len(bdd.HEURISTICS) * len(search.MODES)
    for row in ratios:
        base, model = row[1].split("/")
        if record_times:
            assert totals[base] > 0 and totals[model] > 0
            assert row[column] == f"{totals[base] / totals[model]:.4f}"
        else:
            assert totals[base] == totals[model] == 0
            assert row[column] == ""


def test_eval_shares_the_label_report(labeled_corpus, cfg_file, trained_run, tmp_path, monkeypatch):
    # per test circuit: one identity build for the label report, which gives
    # every label maker's order, a synthesis build for each of them, and a
    # re-rank and a synthesis build for each model mode; fan-in is bounded
    # once per model mode, for the model's graph alone
    calls, bounded = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_from_netlist(*args, **kwargs)

    def counted_bound(netlist, max_arity):
        bounded.append(netlist.name)
        return bound_fanin(netlist, max_arity)

    monkeypatch.setattr(bdd, "build_from_netlist", counted)
    monkeypatch.setattr(search, "build_from_netlist", counted)
    monkeypatch.setattr(cli, "bound_fanin", counted_bound)
    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--out", str(out)]
    ) == 0
    _, rows = read_csv(out / "eval_report.csv")
    circuits = {row[0] for row in rows} - {"TOTAL", "RATIO"}
    builds = 1 + len(bdd.HEURISTICS) + 2 * len(search.MODES)
    assert circuits and len(calls) == builds * len(circuits)
    assert len(bounded) == len(search.MODES) * len(circuits)
    # the classical rows synthesize the label report's orders
    _, label_rows = read_csv(labeled_corpus / "label_report.csv")
    label_counts = {row[0]: dict(zip(bdd.HEURISTICS, row[2:])) for row in label_rows}
    classical = [row for row in rows if row[0] in circuits and row[1] in bdd.HEURISTICS]
    assert len(classical) == len(bdd.HEURISTICS) * len(circuits)
    for row in classical:
        assert row[2] == label_counts[row[0]][row[1]]


def test_a_label_maker_is_one_table_entry(
    labeled_corpus, cfg_file, trained_run, tmp_path, reversed_maker
):
    # a fourth entry gets its own label report column, wins a label only
    # with a strictly lower count, and gets its own eval, TOTAL and RATIO rows
    assert main(["--config", str(cfg_file), "label", str(labeled_corpus), "--force"]) == 0
    header, label_rows = read_csv(labeled_corpus / "label_report.csv")
    assert header == ["circuit_id", "winner", *bdd.HEURISTICS, "label_count", "time_seconds"]
    assert header[2:6] == ["natural", "sifting", "ga", "reversed"]
    corpus, cfg = load_corpus(labeled_corpus), RunConfig.load(cfg_file)
    entries = {e.circuit_id: e for e in corpus.entries}
    assert [row[0] for row in label_rows] == list(entries)
    reversed_counts, ties = {}, 0
    for row in label_rows:
        counts = dict(zip(bdd.HEURISTICS, map(int, row[2:])))
        net = corpus.load_netlist(entries[row[0]])
        n = len(net.primary_inputs)
        mgr, roots = build_from_netlist(net, VarOrder(tuple(reversed(range(n)))))
        assert counts["reversed"] == bdd.node_count(mgr, roots)
        best_other = min(counts[name] for name in bdd.HEURISTICS[:-1])
        assert (row[1] == "reversed") == (counts["reversed"] < best_other)
        assert int(row[-2]) == min(counts.values())
        label = names_to_order(net, corpus.labels[row[0]])
        assert label == cli._label_report(net, cfg).orders[row[1]]
        reversed_counts[row[0]] = counts["reversed"]
        ties += counts["reversed"] == best_other
    assert ties  # the tie rule is exercised: equal counts go to an earlier name

    out = tmp_path / "eval"
    assert main(
        ["--config", str(cfg_file), "eval", str(labeled_corpus), "--weights",
         str(trained_run / "weights.bin"), "--out", str(out)]
    ) == 0
    _, rows = read_csv(out / "eval_report.csv")
    circuits = [row[0] for row in rows if row[1] == "natural" and row[0] != "TOTAL"]
    models = [f"model_{mode}" for mode in search.MODES]
    assert circuits
    for cid in circuits:
        methods = [row[1] for row in rows if row[0] == cid]
        assert methods == [*bdd.HEURISTICS, *models]
        (nodes,) = [row[2] for row in rows if row[0] == cid and row[1] == "reversed"]
        assert int(nodes) == reversed_counts[cid]
    (total,) = [row for row in rows if row[:2] == ["TOTAL", "reversed"]]
    assert int(total[2]) == sum(reversed_counts[cid] for cid in circuits)
    ratios = {row[1] for row in rows if row[0] == "RATIO"}
    assert {f"reversed/{model}" for model in models} <= ratios


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


def test_train_skips_one_input_validation_circuits(tmp_path, cfg_file):
    # rank correlations need two inputs: a one-input validation circuit adds
    # nothing to val_tau, and with no other one there is no val_tau at all
    corpus = tmp_path / "corpus"
    (corpus / "blif").mkdir(parents=True)
    one = parse_blif(".model one\n.inputs a\n.outputs o\n.names a o\n0 1\n.end\n")
    nets = desk_corpus(3, seed=5, min_pis=4, max_pis=5) + [one]
    entries = []
    for net, split in zip(nets, ("train", "train", "val", "val")):
        path = f"blif/{net.name}.blif"
        (corpus / path).write_text(write_blif(net))
        entries.append(CorpusEntry(net.name, path, path, "copy", split))
    cfg = RunConfig.load(cfg_file)
    write_manifest(corpus / "manifest.csv", entries, cfg)
    write_orders(corpus / "labels.txt", {net.name: net.primary_inputs for net in nets})
    run = tmp_path / "run"
    assert main(["--config", str(cfg_file), "train", str(corpus), "--out", str(run)]) == 0
    _, rows = read_csv(run / "loss_trace.csv")
    assert len(rows) == cfg.epochs
    assert all(-1.0 <= float(row[3]) <= 1.0 for row in rows)

    val = _dataset(load_corpus(corpus), cfg, "val")
    assert [g.num_pis for g, _ in val] == [len(nets[2].primary_inputs), 1]
    params = M.load_params(run / "weights.bin")

    def metrics(pairs):
        graphs, labels = zip(*pairs)
        return _decode_metrics(params, search.encode(list(graphs), params), labels)

    assert metrics(val) == metrics(val[:1])
    assert metrics(val[1:]) == {}


def test_train_without_val_tau_names_weights_bin(tmp_path, cfg_file, capsys):
    # with no validation circuit of two or more inputs no epoch has a val_tau,
    # so no best.bin is written, and the closing line names weights.bin
    corpus = tmp_path / "corpus"
    (corpus / "blif").mkdir(parents=True)
    one = parse_blif(".model one\n.inputs a\n.outputs o\n.names a o\n0 1\n.end\n")
    nets = desk_corpus(2, seed=5, min_pis=4, max_pis=5) + [one]
    entries = []
    for net, split in zip(nets, ("train", "train", "val")):
        path = f"blif/{net.name}.blif"
        (corpus / path).write_text(write_blif(net))
        entries.append(CorpusEntry(net.name, path, path, "copy", split))
    write_manifest(corpus / "manifest.csv", entries, RunConfig.load(cfg_file))
    write_orders(corpus / "labels.txt", {net.name: net.primary_inputs for net in nets})
    run = tmp_path / "run"
    run.mkdir()
    (run / "best.bin").write_bytes(b"an earlier run's best")  # goes with the run it belongs to
    assert main(["--config", str(cfg_file), "train", str(corpus), "--out", str(run)]) == 0
    assert (
        "no val tau, so no best.bin was written: use " + str(run / "weights.bin")
    ) in capsys.readouterr().out
    assert (run / "weights.bin").exists() and not (run / "best.bin").exists()


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_skips_circuits_without_inputs(tmp_path, cfg_file, capsys, split):
    # a constant circuit has nothing to order: augment and label keep it with
    # an empty label, and train leaves it out of either split
    src = tmp_path / "src"
    src.mkdir()
    rng = random.Random(3)
    for i in range(8):
        net = read_once_tree(rng, rng.randint(3, 5), name=f"t{i}")
        (src / f"{net.name}.blif").write_text(write_blif(net))
    (src / "const.blif").write_text(".model const\n.outputs y\n.names y\n1\n.end\n")
    corpus = tmp_path / "corpus"
    assert main(["--config", str(cfg_file), "augment", str(src), "--variants", "0", "--out", str(corpus)]) == 0
    assert main(["--config", str(cfg_file), "label", str(corpus)]) == 0
    assert read_orders(corpus / "labels.txt")["const"] == []
    entries = read_manifest(corpus / "manifest.csv")
    entries = [replace(e, split=split) if e.circuit_id == "const" else e for e in entries]
    write_manifest(corpus / "manifest.csv", entries, RunConfig.load(cfg_file))
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["--config", str(cfg_file), "train", str(corpus), "--out", str(run)]) == 0
    assert f"skipping 1 {split} circuits with no primary inputs" in capsys.readouterr().err
    loaded = load_corpus(corpus)
    data = _dataset(loaded, RunConfig.load(cfg_file), split)
    assert len(data) == len(loaded.by_split(split)) - 1
    assert all(g.num_pis > 0 for g, _ in data)


def test_eval_skips_circuits_over_the_node_cap(
    labeled_corpus, cfg_file, trained_run, tmp_path, capsys
):
    # at node cap 20 some natural-order diagrams of the test split are too
    # large; at 4 every one is, and eval writes no report
    test_ids = {e.circuit_id for e in read_manifest(labeled_corpus / "manifest.csv")
                if e.split == "test"}
    for cap, code in ((20, 0), (4, 1)):
        capped = tmp_path / f"cap{cap}.txt"
        capped.write_text(cfg_file.read_text() + f"node_cap = {cap}\n")
        out = tmp_path / f"eval{cap}"
        assert main(
            ["--config", str(capped), "eval", str(labeled_corpus), "--weights",
             str(trained_run / "weights.bin"), "--out", str(out)]
        ) == code
        printed = capsys.readouterr()
        skipped = re.findall(r"warning: (\w+): .*node cap.*; skipped", printed.err)
        assert skipped and set(skipped) <= test_ids and len(set(skipped)) == len(skipped)
        if code:
            assert set(skipped) == test_ids
            assert not (out / "eval_report.csv").exists()
            continue
        _, rows = read_csv(out / "eval_report.csv")
        assert {row[0] for row in rows} - {"TOTAL", "RATIO"} == test_ids - set(skipped)
        kept = len(test_ids) - len(skipped)
        assert f"evaluated {kept} test circuits, skipped {len(skipped)} over" in printed.out


@pytest.mark.parametrize("command", ["predict", "synth"])
def test_predict_and_synth_report_the_node_cap(command, trained_run, cfg_file, tmp_path, capsys):
    # every diagram of pairs6 has more than 4 nodes: the command prints one
    # error line naming the circuit and the cap, writes nothing and exits 1
    blif = tmp_path / "pairs6.blif"
    blif.write_text(PAIRS6_SRC)
    capped = tmp_path / "cap4.txt"
    capped.write_text(cfg_file.read_text() + "node_cap = 4\n")
    orders = tmp_path / "pairs6.order"
    write_orders(orders, {"pairs6": [f"x{i}" for i in range(6)]})
    out = tmp_path / "out"
    args = {
        "predict": [str(blif), "--weights", str(trained_run / "weights.bin")],
        "synth": [str(blif), str(orders)],
    }[command]
    capsys.readouterr()
    assert main(["--config", str(capped), command, *args, "--out", str(out)]) == 1
    assert re.fullmatch(r"error: pairs6: .*node cap.* \(node_cap = 4\)\n", capsys.readouterr().err)
    assert not out.exists()


LATCH_SRC = ".model latched\n.inputs a\n.outputs q\n.latch a q 0\n.end\n"
LATCH_ERROR = r"line 4: \.latch is not supported .*"
OUT = ["--out", "{out}"]

# argv templates over the paths of `bad_input_files`, and the message each
# error line must carry
BAD_INPUTS = {
    "predict-latch": (
        ["predict", "{latch}", "--weights", "{weights}", *OUT],
        r".*/latched\.blif: " + LATCH_ERROR,
    ),
    "synth-latch": (["synth", "{latch}", "{orders}", *OUT], r".*/latched\.blif: " + LATCH_ERROR),
    "synth-output-twice": (
        ["synth", "{outputs_twice}", "{orders}", *OUT],
        r".*/outputs_twice\.blif: primary output 'f' listed twice",
    ),
    "synth-dashed-line": (
        ["synth", "{dashed}", "{dashed_orders}", *OUT],
        r"line names starting with '-' read as negative controls: '-a'",
    ),
    "label-latch": (["label", "{latch_corpus}"], r".*/latch_corpus/blif/latched\.blif: " + LATCH_ERROR),
    "predict-not-weights": (
        ["predict", "{pairs6}", "--weights", "{garbage}", *OUT],
        r".*/garbage\.bin: bad magic .*",
    ),
    "eval-not-weights": (
        ["eval", "{corpus}", "--weights", "{garbage}", *OUT],
        r".*/garbage\.bin: bad magic .*",
    ),
    "hidden-0": (
        ["--config", "{hidden0}", "train", "{corpus}", *OUT],
        r"hidden must be at least 1, got 0",
    ),
    "seed-minus-1": (["--seed", "-1", "label", "{corpus}"], r"seed must be at least 0, got -1"),
    "label-manifest-header": (["label", "{bad_header}"], r".* unexpected manifest header .*"),
    "train-manifest-header": (["train", "{bad_header}", *OUT], r".* unexpected manifest header .*"),
    "label-no-manifest": (["label", "{missing}"], r".*No such file or directory: .*manifest\.csv'"),
    "synth-no-orders": (["synth", "{pairs6}", "{missing}", *OUT], r".*No such file .*/missing'"),
    "no-config": (["--config", "{missing}", "label", "{corpus}"], r".*No such file .*/missing'"),
    "predict-feature-width": (
        ["predict", "{pairs6}", "--weights", "{weights}", *OUT],
        r"feature width \d+ does not match model feature_dim 7",
    ),
    "augment-no-dir": (["augment", "{missing}", *OUT], r"no \.blif source in .*/missing"),
    "augment-no-blif": (["augment", "{empty}", *OUT], r"no \.blif source in .*/empty"),
    "eval-unknown-circuits": (
        ["eval", "{corpus}", "--weights", "{weights}", "--circuits", "typo,pairs6,nope", *OUT],
        r"not in the corpus: nope, typo",
    ),
    "augment-colliding-ids": (
        ["augment", "{colliding}", "--variants", "1", *OUT],
        r"circuit id 'foo_v0' comes from both foo\.blif and foo_v0\.blif",
    ),
    "augment-spaced-id": (
        ["augment", "{spaced}", *OUT],
        r"my circuit\.blif: circuit id 'my circuit' would not survive labels\.txt, "
        r"which splits at whitespace and cuts at '#'",
    ),
    "label-manifest-hash-id": (
        ["label", "{hash_corpus}"],
        r".*/hash_corpus/manifest\.csv line 2: circuit id 'hash#tag' would not survive "
        r"labels\.txt, which splits at whitespace and cuts at '#'",
    ),
    "label-manifest-id-twice": (
        ["label", "{twice_corpus}"],
        r".*/twice_corpus/manifest\.csv lines 2 and 3 both list 'pairs6'",
    ),
    "synth-orders-id-twice": (
        ["synth", "{pairs6}", "{orders_twice}", *OUT],
        r".*/orders_twice\.txt lines 1 and 3 both list 'pairs6'",
    ),
    "config-key-twice": (
        ["--config", "{twice}", "label", "{corpus}"],
        r"config lines 1 and 2 both set 'seed'",
    ),
    "label-report-header": (
        ["label", "{stale_report}"],
        r".*/stale_report/label_report\.csv: header is not \[.*\]; relabel with --force",
    ),
    "label-other-settings": (
        ["label", "{other_settings}"],
        r".*/other_settings/labels\.txt: written with ga_population = 4, not 32; relabel with --force",
    ),
    "train-resume-other-model": (
        ["train", "{train_corpus}", "--resume", "{other_model}", *OUT],
        r".*/other_model\.bin: a checkpoint of hidden = 16, not 64",
    ),
    "predict-model-escapes-out": (
        ["predict", "{escaped}", "--weights", "{weights}", *OUT],
        r".*/escaped_model\.blif: \.model: circuit id '\.\./escaped' is not one plain file name",
    ),
    "synth-model-escapes-out": (
        ["synth", "{escaped}", "{escaped_orders}", *OUT],
        r".*/escaped_model\.blif: \.model: circuit id '\.\./escaped' is not one plain file name",
    ),
    "predict-model-in-subdir": (
        ["predict", "{subdir}", "--weights", "{weights}", *OUT],
        r".*/subdir_model\.blif: \.model: circuit id 'sub/dir' is not one plain file name",
    ),
    "synth-model-in-subdir": (
        ["synth", "{subdir}", "{escaped_orders}", *OUT],
        r".*/subdir_model\.blif: \.model: circuit id 'sub/dir' is not one plain file name",
    ),
}


def one_entry_corpus(root: Path, name: str, src: str, split: str = "test") -> Path:
    """A corpus of one circuit; returns the path of its BLIF file."""
    (root / "blif").mkdir(parents=True)
    blif = root / "blif" / f"{name}.blif"
    blif.write_text(src)
    entry = CorpusEntry(name, f"blif/{name}.blif", blif.name, "copy", split)
    write_manifest(root / "manifest.csv", [entry], RunConfig())
    return blif


@pytest.fixture
def bad_input_files(tmp_path):
    """Paths by name: pairs6 and a `.latch` circuit, a one-entry corpus of
    each, a corpus whose manifest has a wrong header, weights of feature
    width 7 (no circuit's under the default config), a file that is not
    weights, bad configs, an empty directory, a missing path, sources whose
    copy and variant ids collide, a source and a manifest id that labels.txt
    cannot keep, a manifest and an orders file that list one circuit twice, corpora whose label report has another header or
    whose labels were made under other settings, a labeled training
    corpus with a checkpoint of another model than the default config's,
    circuits whose `.model` names a path, with an orders file for them, a
    circuit that lists one output twice, and one with an input named `-a`,
    with its orders file."""
    files = {name: tmp_path / name for name in ("corpus", "latch_corpus", "missing", "out")}
    files["pairs6"] = one_entry_corpus(files["corpus"], "pairs6", PAIRS6_SRC)
    files["stale_report"] = tmp_path / "stale_report"
    one_entry_corpus(files["stale_report"], "pairs6", PAIRS6_SRC)
    (files["stale_report"] / "label_report.csv").write_text(
        "circuit_id,winner,natural,sifting,label_count,time_seconds\n"
    )
    files["other_settings"] = tmp_path / "other_settings"
    one_entry_corpus(files["other_settings"], "pairs6", PAIRS6_SRC)
    write_orders(
        files["other_settings"] / "labels.txt",
        {"pairs6": [f"x{i}" for i in range(6)]},
        RunConfig(ga_population=4),
    )
    files["train_corpus"] = tmp_path / "train_corpus"
    one_entry_corpus(files["train_corpus"], "pairs6", PAIRS6_SRC, split="train")
    write_orders(files["train_corpus"] / "labels.txt", {"pairs6": [f"x{i}" for i in range(6)]})
    graph = _dataset(load_corpus(files["train_corpus"]), RunConfig(), "train")[0][0]
    other = M.init_params(M.ModelConfig(graph.features.shape[1], 16, 3, 2), seed=0)
    zeros = {k: np.zeros_like(t.data) for k, t in other.tensors.items()}
    files["other_model"] = tmp_path / "other_model.bin"
    M.save_checkpoint(other, {"m": zeros, "v": zeros, "step": 0}, 1, files["other_model"])
    files["latch"] = one_entry_corpus(files["latch_corpus"], "latched", LATCH_SRC)
    files["empty"] = tmp_path / "empty"
    files["empty"].mkdir()
    files["bad_header"] = tmp_path / "bad_header"
    files["bad_header"].mkdir()
    (files["bad_header"] / "manifest.csv").write_text("circuit,path\n")
    files["orders"] = tmp_path / "orders.txt"
    write_orders(files["orders"], {"pairs6": [f"x{i}" for i in range(6)]})
    files["weights"] = tmp_path / "weights.bin"
    M.save_params(M.init_params(M.ModelConfig(7, 8, 1, 1), seed=0), files["weights"])
    files["garbage"] = tmp_path / "garbage.bin"
    files["garbage"].write_bytes(b"not a weight file")
    files["colliding"] = tmp_path / "colliding"
    files["colliding"].mkdir()
    for name in ("foo", "foo_v0"):
        (files["colliding"] / f"{name}.blif").write_text(PAIRS6_SRC.replace("pairs6", name))
    files["spaced"] = tmp_path / "spaced"
    files["spaced"].mkdir()
    (files["spaced"] / "my circuit.blif").write_text(PAIRS6_SRC)
    files["hash_corpus"] = tmp_path / "hash_corpus"
    files["hash_corpus"].mkdir()
    (files["hash_corpus"] / "manifest.csv").write_text(
        ",".join(MANIFEST_FIELDS) + "\nhash#tag,blif/hash#tag.blif,hash#tag.blif,copy,test\n"
    )
    files["twice_corpus"] = tmp_path / "twice_corpus"
    files["twice_corpus"].mkdir()
    row = "pairs6,blif/pairs6.blif,pairs6.blif,copy,test\n"
    (files["twice_corpus"] / "manifest.csv").write_text(",".join(MANIFEST_FIELDS) + "\n" + 2 * row)
    files["orders_twice"] = tmp_path / "orders_twice.txt"
    pi_names = " ".join(f"x{i}" for i in range(6))
    files["orders_twice"].write_text(f"pairs6 {pi_names}\n# again\npairs6 {pi_names}\n")
    for name, model in (("escaped", "../escaped"), ("subdir", "sub/dir")):
        files[name] = tmp_path / f"{name}_model.blif"
        files[name].write_text(PAIRS6_SRC.replace("pairs6", model))
    files["outputs_twice"] = tmp_path / "outputs_twice.blif"
    files["outputs_twice"].write_text(".model twice\n.inputs a\n.outputs f f\n.names a f\n1 1\n.end\n")
    files["dashed"] = tmp_path / "dashed.blif"
    files["dashed"].write_text(".model dashed\n.inputs -a b\n.outputs f\n.names -a b f\n11 1\n.end\n")
    files["dashed_orders"] = tmp_path / "dashed_orders.txt"
    files["dashed_orders"].write_text("dashed -a b\n")
    files["escaped_orders"] = tmp_path / "escaped_orders.txt"
    files["escaped_orders"].write_text(f"../escaped {pi_names}\nsub/dir {pi_names}\n")
    for name, text in (("hidden0", "hidden = 0\n"), ("twice", "seed = 1\nseed = 2\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_gives_one_error_line(case, bad_input_files, capsys):
    # every command reports bad input as one `error:` line and exit code 1,
    # with no traceback and no artifact
    template, message = BAD_INPUTS[case]
    assert main([arg.format(**bad_input_files) for arg in template]) == 1
    printed = capsys.readouterr()
    assert re.fullmatch(f"error: {message}\n", printed.err), printed.err
    out = Path(bad_input_files["out"])
    assert not out.exists()
    assert not list(out.parent.glob("escaped.*"))  # nothing beside --out


def test_perfect_predictor_scores_one(labeled_corpus, cfg_file, monkeypatch):
    # feeding labels back as predictions must report tau = rho = 1.0
    from bddseq import cli

    corpus = load_corpus(labeled_corpus)
    cfg = RunConfig.load(cfg_file)
    data = _dataset(corpus, cfg, "train")[:3]
    labels = [label for _, label in data]
    encoded = object()  # stands for the layout of data's graphs
    calls = []

    def perfect(batch, params):  # the layout arrives as one batch
        calls.append(batch)
        return labels

    monkeypatch.setattr(cli.search, "greedy_decode", perfect)
    metrics = _decode_metrics(None, encoded, labels)
    assert metrics["val_tau"] == 1.0
    assert metrics["val_rho"] == 1.0
    assert calls == [encoded]


def test_decode_metrics_without_a_graph_of_two_inputs_is_empty(monkeypatch):
    from bddseq import cli
    from bddseq.graph import FeatureConfig, blif2graph

    def never(batch, params):
        raise AssertionError("nothing to decode")

    monkeypatch.setattr(cli.search, "greedy_decode", never)
    one = parse_blif(".model one\n.inputs a\n.outputs o\n.names a o\n0 1\n.end\n")
    graph = blif2graph(one, FeatureConfig())
    assert _decode_metrics(None, None, []) == {}
    params = M.init_params(M.ModelConfig(graph.features.shape[1], hidden=4, layers=1, heads=1))
    assert _decode_metrics(params, search.encode([graph] * 3, params), [VarOrder((0,))] * 3) == {}


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
