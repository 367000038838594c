"""BLIF netlist handling.

Parses the combinational subset of BLIF (`.model`, `.inputs`, `.outputs`,
`.names`, `.end`), validates and simulates netlists, and provides the two
structural transforms used for dataset augmentation: random signal negation
and fan-in bounding, which splits each wide cover into the AND of each
cube's literals and the OR of the cubes.

A gate keeps its cover as input patterns and one output polarity. BLIF
repeats that bit on every row; the parser takes it from a gate's first row
and refuses, by line number, a row that disagrees. `LogicGate.apply` is the
one gate rule, over bit lanes (`lane_algebra`) or diagram refs.

Sequential constructs (`.latch`, `.subckt`, multi-model files) are rejected.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path


class BlifError(Exception):
    """Malformed BLIF text or a netlist that violates structural invariants."""


@dataclass
class LogicGate:
    """One `.names` gate: its cover's input patterns over {0,1,-} and the one
    output bit every row shares. The gate is `polarity` where some pattern
    matches and its complement elsewhere, so an empty cover with polarity 1
    is constant 0."""

    inputs: list[str]
    output: str
    cover: list[str]
    polarity: int = 1

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def apply(self, values, one, and_, or_, not_):
        """The gate's function of `values`, one per input, as bit lanes (bit
        i of a value is the signal in lane i) or diagram refs, with `one`
        true: each pattern's care literals ANDed, the patterns ORed, and the
        sum complemented at polarity 0."""
        hit = not_(one)
        for pattern in self.cover:
            term = one
            for p, v in zip(pattern, values):
                if p != "-":
                    term = and_(term, v if p == "1" else not_(v))
            hit = or_(hit, term)
        return hit if self.polarity else not_(hit)


@dataclass
class Netlist:
    name: str
    primary_inputs: list[str]
    primary_outputs: list[str]
    gates: list[LogicGate]

    def internal_signals(self) -> list[str]:
        return [g.output for g in self.gates]

    def topo_gates(self) -> list[LogicGate]:
        """Gates in dependency order: by depth, then in declaration order.

        A gate's depth is one more than the deepest gate feeding it (0 when
        only primary inputs feed it), so each depth holds the gates that
        become ready together.
        """
        index = {g.output: i for i, g in enumerate(self.gates)}
        consumers: list[list[int]] = [[] for _ in self.gates]
        waiting = [0] * len(self.gates)
        for i, g in enumerate(self.gates):
            for s in g.inputs:
                j = index.get(s)
                if j is not None:
                    consumers[j].append(i)
                    waiting[i] += 1
        depth = [0] * len(self.gates)
        ready = [i for i, w in enumerate(waiting) if w == 0]
        for i in ready:  # grows while it is walked
            for c in consumers[i]:
                depth[c] = max(depth[c], depth[i] + 1)
                waiting[c] -= 1
                if waiting[c] == 0:
                    ready.append(c)
        if len(ready) < len(self.gates):
            raise BlifError(f"cyclic gate dependency in model '{self.name}'")
        return [self.gates[i] for i in sorted(ready, key=lambda i: (depth[i], i))]

    def validate(self) -> None:
        defined: set[str] = set()
        for s in [*self.primary_inputs, *(g.output for g in self.gates)]:
            if s in defined:
                raise BlifError(f"duplicate signal name '{s}'")
            defined.add(s)
        for g in self.gates:
            if len(set(g.inputs)) != len(g.inputs):
                raise BlifError(f"gate '{g.output}' lists a repeated input")
            if g.output in g.inputs:
                raise BlifError(f"gate '{g.output}' feeds itself")
            for s in g.inputs:
                if s not in defined:
                    raise BlifError(f"undefined signal '{s}' used by gate '{g.output}'")
            if g.polarity not in (0, 1):
                raise BlifError(f"polarity of gate '{g.output}' is not 0 or 1")
            if not g.cover and not g.polarity:
                raise BlifError(
                    f"gate '{g.output}' has an empty cover of polarity 0, "
                    "which BLIF cannot write"
                )
            for pattern in g.cover:
                if len(pattern) != g.arity:
                    raise BlifError(
                        f"cube '{pattern}' does not match arity of gate '{g.output}'"
                    )
                if any(ch not in "01-" for ch in pattern):
                    raise BlifError(f"bad cube symbol in gate '{g.output}'")
        listed: set[str] = set()
        for s in self.primary_outputs:
            if s not in defined:
                raise BlifError(f"undefined primary output '{s}'")
            if s in listed:
                raise BlifError(f"primary output '{s}' listed twice")
            listed.add(s)
        self.topo_gates()  # raises on cycles


def parse_blif(text: str) -> Netlist:
    """Parse a single-model combinational BLIF document."""
    # Join continuation lines and strip comments before tokenizing.
    logical: list[tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.rstrip().endswith("\\"):
            if not pending:
                pending_line = lineno
            pending += line.rstrip()[:-1] + " "
            continue
        if pending:
            logical.append((pending_line, pending + line))
            pending = ""
        elif line.strip():
            logical.append((lineno, line))
    if pending:
        logical.append((pending_line, pending))

    name = None
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[LogicGate] = []
    current: LogicGate | None = None
    ended = False

    for lineno, line in logical:
        tokens = line.split()
        if not tokens:
            continue
        if ended:
            raise BlifError(f"line {lineno}: content after .end")
        if tokens[0].startswith("."):
            directive, args = tokens[0], tokens[1:]
            if directive == ".names":
                if not args:
                    raise BlifError(f"line {lineno}: .names needs an output signal")
                current = LogicGate(inputs=args[:-1], output=args[-1], cover=[])
                gates.append(current)
            else:
                current = None
                if directive == ".model":
                    if name is not None:
                        raise BlifError(
                            f"line {lineno}: multi-model files are not supported"
                        )
                    name = args[0] if args else "top"
                elif directive == ".inputs":
                    inputs.extend(args)
                elif directive == ".outputs":
                    outputs.extend(args)
                elif directive == ".end":
                    ended = True
                elif directive in (".latch", ".subckt", ".gate", ".mlatch"):
                    raise BlifError(
                        f"line {lineno}: {directive} is not supported "
                        "(combinational .names netlists only)"
                    )
                else:
                    raise BlifError(f"line {lineno}: unknown directive {directive}")
        else:
            if current is None:
                raise BlifError(f"line {lineno}: cube row outside a .names block")
            if current.arity == 0:
                if len(tokens) != 1:
                    raise BlifError(f"line {lineno}: malformed constant cube")
                pattern, out = "", tokens[0]
            elif len(tokens) == 2:
                pattern, out = tokens
            else:
                raise BlifError(f"line {lineno}: malformed cube row")
            if out not in ("0", "1"):
                raise BlifError(f"line {lineno}: cube output must be 0 or 1")
            if not current.cover:
                current.polarity = int(out)
            elif int(out) != current.polarity:
                raise BlifError(
                    f"line {lineno}: mixed-polarity cover for gate '{current.output}'"
                )
            current.cover.append(pattern)

    if name is None:
        raise BlifError("missing .model header")
    netlist = Netlist(
        name=name, primary_inputs=inputs, primary_outputs=outputs, gates=gates
    )
    netlist.validate()
    return netlist


def read_blif(path) -> Netlist:
    """Parse the BLIF file at `path`; its BlifError names the file."""
    try:
        return parse_blif(Path(path).read_text())
    except BlifError as exc:
        raise BlifError(f"{path}: {exc}") from None


def write_blif(netlist: Netlist) -> str:
    """Serialize a netlist; parse_blif(write_blif(n)) reproduces n structurally."""
    lines = [f".model {netlist.name}"]
    if netlist.primary_inputs:
        lines.append(".inputs " + " ".join(netlist.primary_inputs))
    if netlist.primary_outputs:
        lines.append(".outputs " + " ".join(netlist.primary_outputs))
    for g in netlist.gates:
        lines.append(".names " + " ".join(g.inputs + [g.output]))
        for pattern in g.cover:
            lines.append(f"{pattern} {g.polarity}".strip())
    lines.append(".end")
    return "\n".join(lines) + "\n"


def exhaustive_columns(n: int) -> list[int]:
    """Input columns over all 2**n assignments.

    Bit i of column j is input j's value under assignment i, whose bit for
    input j is (i >> (n-1-j)) & 1, i.e. input 0 is most significant.
    """
    full = (1 << (1 << n)) - 1
    columns = []
    for j in range(n):
        run = 1 << (n - 1 - j)  # a column repeats `run` zeros then `run` ones
        columns.append((((1 << run) - 1) << run) * (full // ((1 << (2 * run)) - 1)))
    return columns


def lane_algebra(lanes: int) -> tuple:
    """`LogicGate.apply`'s true value, AND, OR and NOT over `lanes` bit lanes."""
    full = (1 << lanes) - 1
    return full, operator.and_, operator.or_, partial(operator.xor, full)


def evaluate(netlist: Netlist, columns, lanes: int) -> tuple[int, ...]:
    """Primary outputs on `lanes` assignments at once.

    columns[j] carries primary input j in every lane (bit i is its value in
    assignment i); each output comes back the same way.
    """
    algebra = lane_algebra(lanes)
    values = dict(zip(netlist.primary_inputs, columns))
    for g in netlist.topo_gates():
        values[g.output] = g.apply([values[s] for s in g.inputs], *algebra)
    return tuple(values[s] for s in netlist.primary_outputs)


def simulate(netlist: Netlist, assignment) -> tuple[int, ...]:
    """Evaluate all primary outputs for one primary-input assignment."""
    if len(assignment) != len(netlist.primary_inputs):
        raise ValueError(
            f"assignment has {len(assignment)} bits, "
            f"netlist has {len(netlist.primary_inputs)} inputs"
        )
    return evaluate(netlist, [int(b) for b in assignment], 1)


def negate_random_signals(netlist: Netlist, k: int, seed: int) -> Netlist:
    """Invert k gate-output signals at their drivers by flipping cover polarity.

    Produces an augmentation variant: the result equals the source netlist with
    the chosen signals complemented, and still validates.
    """
    signals = netlist.internal_signals()
    if k > len(signals):
        raise ValueError(f"k={k} exceeds {len(signals)} internal signals")
    rng = random.Random(seed)
    chosen = set(rng.sample(signals, k))
    new_gates = []
    for g in netlist.gates:
        if g.output not in chosen:
            new_gates.append(LogicGate(list(g.inputs), g.output, list(g.cover), g.polarity))
        elif g.cover:
            new_gates.append(LogicGate(list(g.inputs), g.output, list(g.cover), 1 - g.polarity))
        else:  # constant 0 becomes constant 1
            new_gates.append(LogicGate(list(g.inputs), g.output, ["-" * g.arity]))
    out = Netlist(
        name=netlist.name,
        primary_inputs=list(netlist.primary_inputs),
        primary_outputs=list(netlist.primary_outputs),
        gates=new_gates,
    )
    out.validate()
    return out


class _Namer:
    """Fresh-signal generator that avoids every name already in use."""

    def __init__(self, used):
        self.used = set(used)
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            cand = f"{base}__d{self.counter}"
            self.counter += 1
            if cand not in self.used:
                self.used.add(cand)
                return cand


def _reduce(terms, rows, output, polarity, max_arity, fresh, sink) -> str:
    """Combine [(signal, required_bit)] into `output`, level by level.

    Each level joins runs of up to max_arity terms in one gate; rows(bits)
    gives that gate's cover patterns. Inner gates are positive and the root
    drives `output` with the requested polarity.
    """
    while len(terms) > max_arity:
        level = []
        for i in range(0, len(terms), max_arity):
            group = terms[i : i + max_arity]
            if len(group) > 1:
                t = fresh()
                sink.append(LogicGate([s for s, _ in group], t, rows([b for _, b in group])))
                group = [(t, "1")]
            level += group
        terms = level
    sink.append(
        LogicGate([s for s, _ in terms], output, rows([b for _, b in terms]), polarity)
    )
    return output


def _and_rows(bits):
    return ["".join(bits)]


def _or_rows(bits):
    return ["-" * i + b + "-" * (len(bits) - i - 1) for i, b in enumerate(bits)]


def _decompose_gate(gate: LogicGate, max_arity: int, namer, sink) -> None:
    """Emit gates of arity <= max_arity computing gate's function into sink.

    The cover is a sum of products: each cube's care literals are ANDed and
    the cube terms ORed; a single cube's AND is the root itself.
    """
    if gate.arity <= max_arity:
        sink.append(gate)
        return
    pol = gate.polarity
    # repeated cubes would list one input twice in the OR
    cubes = [
        [(s, b) for s, b in zip(gate.inputs, p) if b != "-"]
        for p in dict.fromkeys(gate.cover)
    ]
    literals = {lits[0] for lits in cubes if len(lits) == 1}
    if not cubes or not all(cubes) or len({s for s, _ in literals}) < len(literals):
        # a constant: 0 when empty, the polarity with a true cube, or x or not-x
        sink.append(LogicGate([], gate.output, [""] if cubes and pol else []))
        return

    fresh = partial(namer.fresh, gate.output)
    if len(cubes) == 1:
        _reduce(cubes[0], _and_rows, gate.output, pol, max_arity, fresh, sink)
        return
    terms = []
    for lits in cubes:
        if len(lits) > 1:
            lits = [(_reduce(lits, _and_rows, fresh(), 1, max_arity, fresh, sink), "1")]
        terms += lits
    _reduce(terms, _or_rows, gate.output, pol, max_arity, fresh, sink)


def bound_fanin(netlist: Netlist, max_arity: int) -> Netlist:
    """Rewrite the netlist so every gate has at most max_arity inputs.

    A wider gate's cover is read as a sum of products: each cube's care
    literals are ANDed and the cube terms ORed, both reduced level by level
    in gates of at most max_arity inputs. Inner gates are positive and the
    root carries the cover's polarity. A cover that is constant (empty, with
    an all-dash cube, or with x and not-x among its one-literal cubes)
    becomes one constant gate. A gate that fits is kept as it is, and so is
    the netlist when every gate fits. The result is simulation equivalent to
    the source netlist.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be at least 2")
    if all(g.arity <= max_arity for g in netlist.gates):
        return netlist
    namer = _Namer(
        set(netlist.primary_inputs) | {g.output for g in netlist.gates}
    )
    new_gates: list[LogicGate] = []
    for g in netlist.gates:
        _decompose_gate(g, max_arity, namer, new_gates)
    out = Netlist(
        name=netlist.name,
        primary_inputs=list(netlist.primary_inputs),
        primary_outputs=list(netlist.primary_outputs),
        gates=new_gates,
    )
    out.validate()
    return out
