"""BDD-driven reversible-circuit synthesis with cost accounting.

Every internal BDD node is synthesized once (shared nodes are reused) onto a
fresh ancilla line initialized to 0, by XOR-composing its two disjoint
branch terms. Nodes come in the manager's `postorder`, children first. With
x the node's variable line, f0/f1 the child results, and T the target line:

    child pattern            gates                                  cost
    low=0                    (no low term)
    low=1                    NOT(T), CNOT(x, T)                     1 + 1
    low=g                    TOFFOLI(-x, g, T)                      5
    high=0                   (no high term)
    high=1                   CNOT(x, T)                             1
    high=g                   TOFFOLI(+x, g, T)                      5
    low=0, high=1            none: the variable line itself is f

Since exactly one of x / not-x holds, the two terms never overlap and the
XOR accumulation realizes f = (not-x AND f0) OR (x AND f1). Primary-output
lines are marked non-garbage; every other line is garbage.

`run_cascade` is the one gate loop, over bit lanes or diagram refs. Run on
the refs of a circuit's own manager, it checks the circuit at any width.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

from .bdd import AND, FALSE, TRUE, XOR, BddManager
from .blif import Netlist

NOT = "t1"
CNOT = "t2"
TOFFOLI = "t3"

_KIND_BY_CONTROLS = {0: NOT, 1: CNOT, 2: TOFFOLI}


@dataclass(frozen=True)
class RevGate:
    controls: tuple[tuple[int, bool], ...]  # (line, positive polarity)
    target: int

    def __post_init__(self):
        if any(line == self.target for line, _ in self.controls):
            raise ValueError("gate target among controls")
        if len(self.controls) > 2:
            raise ValueError("at most two controls supported")

    @property
    def kind(self) -> str:
        return _KIND_BY_CONTROLS[len(self.controls)]


@dataclass
class ReversibleCircuit:
    """A gate cascade over named lines. Each fact is stored once: the line
    count and the garbage flags (lines with no output name) are derived."""

    line_names: list[str]
    constants: list[int | None]  # initial value for ancilla lines, None for inputs
    output_names: list[str | None]  # primary-output name carried by a line
    gates: list[RevGate]

    @property
    def lines(self) -> int:
        return len(self.line_names)

    @property
    def garbage(self) -> list[bool]:
        return [name is None for name in self.output_names]

    def validate(self) -> None:
        assert len(self.constants) == len(self.output_names) == self.lines
        for g in self.gates:
            assert 0 <= g.target < self.lines
            for line, _ in g.controls:
                assert 0 <= line < self.lines


NOT_COST = 1
CNOT_COST = 1
TOFFOLI_COST = 5
TOFFOLI_TWO_NEGATIVE_COST = 6
TRANSISTORS_PER_CONTROL = 8


def quantum_cost(circuit: ReversibleCircuit) -> int:
    total = 0
    for g in circuit.gates:
        n_controls = len(g.controls)
        if n_controls == 0:
            total += NOT_COST
        elif n_controls == 1:
            total += CNOT_COST
        else:
            negatives = sum(1 for _, pol in g.controls if not pol)
            if negatives == 2:
                total += TOFFOLI_TWO_NEGATIVE_COST
            else:
                total += TOFFOLI_COST
    return total


def transistor_cost(circuit: ReversibleCircuit) -> int:
    return sum(TRANSISTORS_PER_CONTROL * len(g.controls) for g in circuit.gates)


def run_cascade(circuit: ReversibleCircuit, lines, one, and_, not_, xor) -> list:
    """Run the gates over bit lanes (bit i of a value is the line in lane i)
    or diagram refs: lines[k] is line k's start value and `one` is true. Each
    gate XORs the AND of its control literals into its target."""
    state = list(lines)
    for g in circuit.gates:
        fire = one
        for line, pol in g.controls:
            fire = and_(fire, state[line] if pol else not_(state[line]))
        state[g.target] = xor(state[g.target], fire)
    return state


def _start_lines(circuit: ReversibleCircuit, inputs, one) -> list:
    """Start values: `inputs` in order on the non-constant lines, else `one` or FALSE."""
    it = iter(inputs)
    return [next(it) if c is None else (one if c else FALSE) for c in circuit.constants]


def simulate_reversible(circuit: ReversibleCircuit, assignment) -> list[int]:
    """Run the cascade; assignment supplies values for the non-constant lines."""
    start = _start_lines(circuit, [int(b) for b in assignment], 1)
    return run_cascade(circuit, start, 1, operator.and_, operator.invert, operator.xor)


def synthesize(
    manager: BddManager, roots, netlist: Netlist
) -> ReversibleCircuit:
    """Map the BDDs under `roots` to a NOT/CNOT/Toffoli cascade.

    One line per primary input plus one ancilla per synthesized internal
    node; literal nodes reuse their variable's input line outright. An
    ancilla is named `w<k>`, and an output copy or constant output
    `o_<output>`, or the first `_<k>` variant of that name no line has yet,
    so the line names stay distinct.
    """
    n_pi = len(netlist.primary_inputs)
    line_names = list(netlist.primary_inputs)
    used = set(line_names)
    constants: list[int | None] = [None] * n_pi
    output_names: list[str | None] = [None] * n_pi
    gates: list[RevGate] = []
    node_line: dict[int, int] = {}

    def new_line(name: str) -> int:
        """A constant-0 ancilla, named `name` or its first free variant,
        that carries no primary output yet."""
        fresh, k = name, 0
        while fresh in used:
            k += 1
            fresh = f"{name}_{k}"
        used.add(fresh)
        line_names.append(fresh)
        constants.append(0)
        output_names.append(None)
        return len(line_names) - 1

    for ref in manager.postorder(roots):
        low, high = manager.low(ref), manager.high(ref)
        x = manager.var_of(ref)  # PI lines are in declaration order
        if low == FALSE and high == TRUE:
            node_line[ref] = x  # the function is the variable itself
            continue
        target = new_line(f"w{len(node_line)}")
        node_line[ref] = target
        if low == TRUE:
            gates.append(RevGate((), target))
            gates.append(RevGate(((x, True),), target))
        elif low != FALSE:
            gates.append(RevGate(((x, False), (node_line[low], True)), target))
        if high == TRUE:
            gates.append(RevGate(((x, True),), target))
        elif high != FALSE:
            gates.append(RevGate(((x, True), (node_line[high], True)), target))

    # attach primary outputs, copying when a line is already claimed
    for po_name, ref in zip(netlist.primary_outputs, roots):
        if ref <= TRUE:  # a constant output gets a line of its own
            line = new_line(f"o_{po_name}")
            if ref == TRUE:
                gates.append(RevGate((), line))
        else:
            line = node_line[ref]
        if output_names[line] is not None:
            copy = new_line(f"o_{po_name}")
            gates.append(RevGate(((line, True),), copy))
            line = copy
        output_names[line] = po_name

    circuit = ReversibleCircuit(line_names, constants, output_names, gates)
    circuit.validate()
    return circuit


def verify_synthesis(
    circuit: ReversibleCircuit, manager: BddManager, roots, netlist: Netlist
) -> bool:
    """Symbolic check, in the manager the circuit was synthesized from, that
    each primary-output line ends as its root's ref; input line k starts as
    variable k. ROBDDs are canonical, so the check is complete at any width;
    it trusts the engine that built the roots. Its nodes stay in the store,
    where `node_count`, walking from the roots, does not see them."""
    and_, xor = partial(manager.apply, AND), partial(manager.apply, XOR)
    start = _start_lines(circuit, map(manager.var, range(manager.n)), TRUE)
    state = run_cascade(circuit, start, TRUE, and_, manager.apply_not, xor)
    po_lines = {name: i for i, name in enumerate(circuit.output_names) if name is not None}
    return all(
        state[po_lines[name]] == ref for name, ref in zip(netlist.primary_outputs, roots)
    )


# -- .real format ---------------------------------------------------------------


def write_real(circuit: ReversibleCircuit) -> str:
    dashed = ", ".join(f"'{name}'" for name in circuit.line_names if name.startswith("-"))
    if dashed:  # a gate line reads a leading '-' as a negative control
        raise ValueError(f"line names starting with '-' read as negative controls: {dashed}")
    lines = [".version 2.0", f".numvars {circuit.lines}"]
    lines.append(".variables " + " ".join(circuit.line_names))
    lines.append(".inputs " + " ".join(circuit.line_names))
    outs = [
        name if name is not None else circuit.line_names[i]
        for i, name in enumerate(circuit.output_names)
    ]
    lines.append(".outputs " + " ".join(outs))
    lines.append(
        ".constants "
        + "".join("-" if c is None else str(c) for c in circuit.constants)
    )
    lines.append(".garbage " + "".join("1" if g else "0" for g in circuit.garbage))
    lines.append(".begin")
    for g in circuit.gates:
        parts = [f"{g.kind}"]
        for line, pol in g.controls:
            parts.append(("" if pol else "-") + circuit.line_names[line])
        parts.append(circuit.line_names[g.target])
        lines.append(" ".join(parts))
    lines.append(".end")
    return "\n".join(lines) + "\n"


class RealFormatError(ValueError):
    """Malformed `.real` text; `line` is the 1-based line number, 0 when the
    fault lies in the file as a whole."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _gate(tokens: list[str], index: dict[str, int], lineno: int) -> RevGate:
    head, operands = tokens[0], tokens[1:]
    # t<n> on n lines; a Fredkin (f), Peres (p) or V gate is refused
    if head[0] != "t" or not head[1:].isdecimal() or int(head[1:]) != len(operands) or not operands:
        raise RealFormatError(f"not a Toffoli gate line: {' '.join(tokens)!r}", lineno)
    controls = []
    for op in operands:
        name = op[1:] if op.startswith("-") else op
        if name not in index:
            raise RealFormatError(f"gate uses undeclared line '{name}'", lineno)
        controls.append((index[name], not op.startswith("-")))
    target, positive = controls.pop()
    if not positive:
        raise RealFormatError(f"negated target '{operands[-1]}'", lineno)
    try:
        return RevGate(tuple(controls), target)
    except ValueError as exc:
        raise RealFormatError(str(exc), lineno) from exc


_HEADER = (".version", ".numvars", ".variables", ".inputs", ".outputs", ".constants", ".garbage")


def read_real(text: str) -> ReversibleCircuit:
    """Round-trip reader for the subset emitted by write_real, which gives
    each _HEADER directive at most once."""
    given_on: dict[str, int] = {}
    numvars = 0
    names: list[str] = []
    index: dict[str, int] = {}
    outs: list[str] = []
    constants: list[int | None] = []
    garbage: list[bool] = []
    gates: list[RevGate] = []
    in_body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        field = "".join(tokens[1:])
        if head in _HEADER:
            if head in given_on:
                first = given_on[head]
                raise RealFormatError(f"{head} given twice, first on line {first}", lineno)
            given_on[head] = lineno
        if head in (".version", ".inputs"):
            continue
        if head == ".numvars":
            if len(tokens) != 2 or not field.isdecimal():
                raise RealFormatError(f"bad .numvars {field!r}", lineno)
            numvars = int(field)
        elif head == ".variables":
            names, index = tokens[1:], {}
            for i, name in enumerate(names):
                if index.setdefault(name, i) != i:
                    raise RealFormatError(f".variables names line '{name}' twice", lineno)
        elif head == ".outputs":
            outs = tokens[1:]
        elif head == ".constants":
            if set(field) - set("-01"):
                raise RealFormatError(f"bad .constants {field!r}", lineno)
            constants = [None if c == "-" else int(c) for c in field]
        elif head == ".garbage":
            if set(field) - set("01"):
                raise RealFormatError(f"bad .garbage {field!r}", lineno)
            garbage = [c == "1" for c in field]
        elif head == ".begin":
            in_body = True
        elif head == ".end":
            in_body = False
        elif in_body:
            gates.append(_gate(tokens, index, lineno))
        else:
            raise RealFormatError(f"unknown directive {head}", lineno)
    for field, values in (
        (".variables", names),
        (".outputs", outs),
        (".constants", constants),
        (".garbage", garbage),
    ):
        if len(values) != numvars:
            raise RealFormatError(
                f"{field} has {len(values)} entries, .numvars is {numvars}"
            )
    output_names = [None if g else out for g, out in zip(garbage, outs)]
    circuit = ReversibleCircuit(names, constants, output_names, gates)
    circuit.validate()
    return circuit
