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
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .bdd import NODE_CAP, VarOrder
from .blif import Netlist, read_blif


# the spellings a config file may use for a boolean
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass
class RunConfig:
    seed: int = 42
    node_cap: int = NODE_CAP
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
        for key, low in (
            ("seed", 0),
            ("node_cap", 1),
            ("max_table_len", 4),
            ("decompose_arity", 2),
            ("hidden", 1),
            ("layers", 1),
            ("heads", 1),
            ("epochs", 1),
            ("batch_size", 1),
            ("ga_population", 2),
            ("ga_generations", 0),
            ("ga_tournament", 1),
            ("variants_per_circuit", 0),
            ("negations_per_variant", 0),
        ):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} must be divisible by heads {self.heads}")
        # the truth table of a fan-in-bounded gate must fit the feature width
        table, arity = self.max_table_len, self.decompose_arity
        if table & (table - 1) or table.bit_length() - 1 < arity:
            raise ValueError(
                f"max_table_len must be a power of two of at least 2 ** decompose_arity "
                f"= 2 ** {arity}, got {table}"
            )
        for key in ("ga_mutation", "alpha"):
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )

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
        known = {f.name: type(f.default) for f in fields(RunConfig)}  # bool, int or float
        values, set_on = {}, {}
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
            if key in set_on:
                raise ValueError(f"config lines {set_on[key]} and {lineno} both set '{key}'")
            set_on[key] = lineno
            kind = known[key]
            if kind is bool:
                if val.lower() not in BOOLEANS:
                    raise ValueError(
                        f"config line {lineno}: '{key}' needs one of 1/0, true/false, yes/no"
                    )
                values[key] = BOOLEANS[val.lower()]
            else:
                try:
                    values[key] = kind(val)
                except ValueError:
                    raise ValueError(
                        f"config line {lineno}: '{key}' is not a valid {kind.__name__}: '{val}'"
                    ) from None
        return RunConfig(**values)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_text(Path(path).read_text())

    def comment_block(self) -> str:
        return "".join(f"# {line}\n" for line in self.to_text().splitlines())


def comment_settings(text: str) -> dict[str, str]:
    """key -> value text of the `comment_block` that opens an artifact's
    text; empty when it opens with no such block."""
    settings = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        key, eq, value = line[2:].partition(" = ")
        if eq:
            settings[key] = value
    return settings


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
        return read_blif(self.root / entry.path)


MANIFEST_FIELDS = ["circuit_id", "path", "source", "transform", "split"]


def write_manifest(path, entries, config: RunConfig) -> None:
    rows = [[e.circuit_id, e.path, e.source, e.transform, e.split] for e in entries]
    write_csv(path, MANIFEST_FIELDS, rows, config)


def read_manifest(path) -> list[CorpusEntry]:
    """Manifest entries in file order; a malformed file raises ValueError."""
    rows = csv_rows(path)
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
        check_circuit_id(row[0], f"{path} line {lineno}")
    _listed_once(path, [(lineno, row[0]) for lineno, row in body])
    return [CorpusEntry(*row) for _, row in body]


def check_circuit_id(cid: str, where: str) -> None:
    """ValueError, after `where`, unless `read_orders` reads `cid` back as one
    name and `cid` is one plain file name, since it names a circuit's files."""
    if cid.split() != [cid] or "#" in cid:
        raise ValueError(
            f"{where}: circuit id {cid!r} would not survive labels.txt, "
            "which splits at whitespace and cuts at '#'"
        )
    if "/" in cid or "\\" in cid or cid in (".", ".."):
        raise ValueError(f"{where}: circuit id {cid!r} is not one plain file name")


def _listed_once(path, numbered) -> None:
    """ValueError naming both lines when a circuit id of (line, id) pairs repeats."""
    first: dict[str, int] = {}
    for lineno, cid in numbered:
        if first.setdefault(cid, lineno) != lineno:
            raise ValueError(f"{path} lines {first[cid]} and {lineno} both list '{cid}'")


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
    """Circuit name -> PI names; ValueError when a name is listed twice."""
    rows = [
        (lineno, line.split())
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]
    _listed_once(path, [(lineno, tokens[0]) for lineno, tokens in rows])
    return {tokens[0]: tokens[1:] for _, tokens in rows}


def order_to_names(netlist: Netlist, order: VarOrder) -> list[str]:
    return [netlist.primary_inputs[v] for v in order.permutation]


def names_to_order(netlist: Netlist, names) -> VarOrder:
    """The order `names` gives; ValueError unless it permutes the inputs."""
    if sorted(names) != sorted(netlist.primary_inputs):
        raise ValueError(
            f"{netlist.name}: order '{' '.join(names)}' does not permute the inputs"
        )
    index = {s: i for i, s in enumerate(netlist.primary_inputs)}
    return VarOrder(tuple(index[s] for s in names))


# -- CSV reports ----------------------------------------------------------------


def write_csv(path, header, rows, config: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    Path(path).write_text(config.comment_block() + buf.getvalue())


def csv_rows(path) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each line of a `write_csv` file that is not
    blank or a comment, header first."""
    return [
        (lineno, next(csv.reader([line])))
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]


def write_jsonl(path, records, config: RunConfig) -> None:
    out = json.dumps({"run_config": config.to_text()}, sort_keys=True) + "\n"
    for rec in records:
        out += json.dumps(rec, sort_keys=True) + "\n"
    Path(path).write_text(out)
