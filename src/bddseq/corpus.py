"""Run configuration, dataset splits, and artifact file formats.

Artifacts embed the full configuration as `#`-prefixed comment lines so any
output can be traced back to the exact run settings. Split assignment is a
pure function of (circuit id, seed).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .bdd import VarOrder
from .blif import Netlist, parse_blif


# the spellings a config file may use for a boolean
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass
class RunConfig:
    seed: int = 42
    node_cap: int = 2_000_000
    # featurization
    max_table_len: int = 16
    normalize_structural: bool = True
    decompose_arity: int = 4
    # model (desk scale; the full-scale reference ran hidden=512, layers=6)
    hidden: int = 64
    layers: int = 3
    heads: int = 4
    # training (full-scale reference: lr=1e-5, batch=16, 400 epochs)
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 3e-3
    uniform_weights: bool = False
    # reordering baselines
    ga_population: int = 32
    ga_generations: int = 50
    ga_tournament: int = 3
    ga_mutation: float = 0.2
    # augmentation
    variants_per_circuit: int = 3
    negations_per_variant: int = 2
    # decoding
    alpha: float = 0.25
    # wall-time columns are zeroed when false so outputs are byte-reproducible
    record_times: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        known = {f.name: f.type for f in fields(RunConfig)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key '{key}'")
            kind = known[key]
            if kind in ("bool", bool):
                if val.lower() not in BOOLEANS:
                    raise ValueError(
                        f"config line {lineno}: '{key}' needs one of 1/0, true/false, yes/no"
                    )
                values[key] = BOOLEANS[val.lower()]
            elif kind in ("int", int, "float", float):
                number = int if kind in ("int", int) else float
                try:
                    values[key] = number(val)
                except ValueError:
                    raise ValueError(
                        f"config line {lineno}: '{key}' is not a valid {number.__name__}: '{val}'"
                    ) from None
            else:
                values[key] = val
        return RunConfig(**values)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_text(Path(path).read_text())

    def comment_block(self) -> str:
        return "".join(f"# {line}\n" for line in self.to_text().splitlines())


def split_of(circuit_id: str, seed: int) -> str:
    """Deterministic 7:2:1 train/val/test assignment."""
    digest = hashlib.sha256(f"{seed}:{circuit_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    if u < 0.7:
        return "train"
    if u < 0.9:
        return "val"
    return "test"


@dataclass
class CorpusEntry:
    circuit_id: str
    path: str
    source: str
    transform: str
    split: str


@dataclass
class Corpus:
    root: Path
    entries: list[CorpusEntry]
    labels: dict[str, list[str]]  # circuit id -> PI names in label order

    def by_split(self, split: str) -> list[CorpusEntry]:
        return [e for e in self.entries if e.split == split]

    def load_netlist(self, entry: CorpusEntry) -> Netlist:
        return parse_blif((self.root / entry.path).read_text())


MANIFEST_FIELDS = ["circuit_id", "path", "source", "transform", "split"]


def write_manifest(path, entries, config: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFEST_FIELDS)
    for e in entries:
        writer.writerow([e.circuit_id, e.path, e.source, e.transform, e.split])
    Path(path).write_text(config.comment_block() + buf.getvalue())


def read_manifest(path) -> list[CorpusEntry]:
    """Manifest entries in file order; a malformed file raises ValueError."""
    rows = [
        (lineno, next(csv.reader([line])))
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not rows:
        raise ValueError(f"{path}: empty manifest, expected the header {MANIFEST_FIELDS}")
    (lineno, header), body = rows[0], rows[1:]
    if header != MANIFEST_FIELDS:
        raise ValueError(f"{path} line {lineno}: unexpected manifest header {header}")
    for lineno, row in body:
        if len(row) != len(MANIFEST_FIELDS):
            raise ValueError(
                f"{path} line {lineno}: expected {len(MANIFEST_FIELDS)} fields, got {len(row)}"
            )
    return [CorpusEntry(*row) for _, row in body]


def load_corpus(root) -> Corpus:
    root = Path(root)
    entries = read_manifest(root / "manifest.csv")
    labels_path = root / "labels.txt"
    labels = read_orders(labels_path) if labels_path.exists() else {}
    return Corpus(root=root, entries=entries, labels=labels)


# -- ordering files ------------------------------------------------------------


def write_orders(path, orders: dict[str, list[str]], config: RunConfig | None = None) -> None:
    """One line per circuit: name followed by PI names in order."""
    out = config.comment_block() if config is not None else ""
    for name in orders:
        out += name + " " + " ".join(orders[name]) + "\n"
    Path(path).write_text(out)


def read_orders(path) -> dict[str, list[str]]:
    orders: dict[str, list[str]] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        orders[tokens[0]] = tokens[1:]
    return orders


def order_to_names(netlist: Netlist, order: VarOrder) -> list[str]:
    return [netlist.primary_inputs[v] for v in order.permutation]


def names_to_order(netlist: Netlist, names) -> VarOrder:
    index = {s: i for i, s in enumerate(netlist.primary_inputs)}
    try:
        return VarOrder(tuple(index[s] for s in names))
    except KeyError as exc:
        raise ValueError(f"order names {names} do not match netlist inputs") from exc


# -- CSV reports ----------------------------------------------------------------


def write_csv(path, header, rows, config: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    Path(path).write_text(config.comment_block() + buf.getvalue())


def read_csv(path):
    rows = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    reader = csv.reader(rows)
    header = next(reader)
    return header, list(reader)


def write_jsonl(path, records, config: RunConfig) -> None:
    out = json.dumps({"run_config": config.to_text()}, sort_keys=True) + "\n"
    for rec in records:
        out += json.dumps(rec, sort_keys=True) + "\n"
    Path(path).write_text(out)
