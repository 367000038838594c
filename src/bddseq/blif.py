"""BLIF netlist handling.

Parses the combinational subset of BLIF (`.model`, `.inputs`, `.outputs`,
`.names`, `.end`), validates and simulates netlists, and provides the two
structural transforms used for dataset augmentation: random signal negation
and fan-in bounding by gate decomposition.

Sequential constructs (`.latch`, `.subckt`, multi-model files) are rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class BlifError(Exception):
    """Malformed BLIF text or a netlist that violates structural invariants."""


@dataclass(frozen=True)
class Cube:
    """One row of a `.names` cover: an input pattern over {0,1,-} and an output bit."""

    pattern: str
    output: int


@dataclass
class LogicGate:
    inputs: list[str]
    output: str
    cover: list[Cube]

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def polarity(self) -> int:
        """Shared output value of the cover rows; empty cover acts as constant 0."""
        return self.cover[0].output if self.cover else 0

    def eval_lanes(self, values, full: int) -> int:
        """Bit-parallel eval: values[k] carries input k in every lane of `full`."""
        if not self.cover:
            return 0
        hit = 0
        for c in self.cover:
            term = full
            for p, v in zip(c.pattern, values):
                if p == "1":
                    term &= v
                elif p == "0":
                    term &= ~v
            hit |= term
        return hit if self.polarity else full ^ hit


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
        seen: set[str] = set()
        for s in self.primary_inputs:
            if s in seen:
                raise BlifError(f"duplicate signal name '{s}'")
            seen.add(s)
        for g in self.gates:
            if g.output in seen:
                raise BlifError(f"duplicate signal name '{g.output}'")
            seen.add(g.output)
        defined = set(self.primary_inputs) | {g.output for g in self.gates}
        for g in self.gates:
            if len(set(g.inputs)) != len(g.inputs):
                raise BlifError(f"gate '{g.output}' lists a repeated input")
            if g.output in g.inputs:
                raise BlifError(f"gate '{g.output}' feeds itself")
            for s in g.inputs:
                if s not in defined:
                    raise BlifError(f"undefined signal '{s}' used by gate '{g.output}'")
            pols = {c.output for c in g.cover}
            if len(pols) > 1:
                raise BlifError(f"mixed-polarity cover for gate '{g.output}'")
            for c in g.cover:
                if len(c.pattern) != g.arity:
                    raise BlifError(
                        f"cube '{c.pattern}' does not match arity of gate '{g.output}'"
                    )
                if any(ch not in "01-" for ch in c.pattern):
                    raise BlifError(f"bad cube symbol in gate '{g.output}'")
                if c.output not in (0, 1):
                    raise BlifError(f"bad cube output in gate '{g.output}'")
        for s in self.primary_outputs:
            if s not in defined:
                raise BlifError(f"undefined primary output '{s}'")
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
            current.cover.append(Cube(pattern=pattern, output=int(out)))

    if name is None:
        raise BlifError("missing .model header")
    netlist = Netlist(
        name=name, primary_inputs=inputs, primary_outputs=outputs, gates=gates
    )
    netlist.validate()
    return netlist


def write_blif(netlist: Netlist) -> str:
    """Serialize a netlist; parse_blif(write_blif(n)) reproduces n structurally."""
    lines = [f".model {netlist.name}"]
    if netlist.primary_inputs:
        lines.append(".inputs " + " ".join(netlist.primary_inputs))
    if netlist.primary_outputs:
        lines.append(".outputs " + " ".join(netlist.primary_outputs))
    for g in netlist.gates:
        lines.append(".names " + " ".join(g.inputs + [g.output]))
        for c in g.cover:
            lines.append(f"{c.pattern} {c.output}".strip())
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


def evaluate(netlist: Netlist, columns, lanes: int) -> tuple[int, ...]:
    """Primary outputs on `lanes` assignments at once.

    columns[j] carries primary input j in every lane (bit i is its value in
    assignment i); each output comes back the same way.
    """
    full = (1 << lanes) - 1
    values = dict(zip(netlist.primary_inputs, columns))
    for g in netlist.topo_gates():
        values[g.output] = g.eval_lanes([values[s] for s in g.inputs], full)
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
        if g.output in chosen:
            if g.cover:
                cover = [Cube(c.pattern, 1 - c.output) for c in g.cover]
            else:
                cover = [Cube("-" * g.arity, 1)]  # constant 0 becomes constant 1
            new_gates.append(LogicGate(list(g.inputs), g.output, cover))
        else:
            new_gates.append(
                LogicGate(list(g.inputs), g.output, list(g.cover))
            )
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


def _pairwise_tree(literals, kind, output, polarity, namer, sink):
    """Reduce [(signal, required_bit)] with a balanced binary AND/OR tree.

    kind selects the two-input cover shape; the root gate drives `output`
    with the requested cover polarity, inner nodes are plain positive gates.
    """
    level = list(literals)
    while len(level) > 2:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            (sa, ba), (sb, bb) = level[i], level[i + 1]
            t = namer.fresh(output)
            if kind == "and":
                cover = [Cube(f"{ba}{bb}", 1)]
            else:
                cover = [Cube(f"{ba}-", 1), Cube(f"-{bb}", 1)]
            sink.append(LogicGate([sa, sb], t, cover))
            nxt.append((t, "1"))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    if len(level) == 1:
        sig, bit = level[0]
        sink.append(LogicGate([sig], output, [Cube(bit, polarity)]))
        return
    (sa, ba), (sb, bb) = level
    if kind == "and":
        cover = [Cube(f"{ba}{bb}", polarity)]
    else:
        cover = [Cube(f"{ba}-", polarity), Cube(f"-{bb}", polarity)]
    sink.append(LogicGate([sa, sb], output, cover))


def _constant_gate(output: str, value: int) -> LogicGate:
    return LogicGate([], output, [Cube("", 1)] if value else [])


def _decompose_gate(gate: LogicGate, max_arity: int, namer, sink) -> None:
    """Emit gates of arity <= max_arity computing gate's function into sink."""
    if gate.arity <= max_arity:
        sink.append(gate)
        return
    pol = gate.polarity
    if not gate.cover:
        sink.append(_constant_gate(gate.output, 0))
        return
    if any(set(c.pattern) <= {"-"} for c in gate.cover):
        sink.append(_constant_gate(gate.output, pol))
        return

    if len(gate.cover) == 1:
        # single cube: a conjunction of literals
        pat = gate.cover[0].pattern
        lits = [(gate.inputs[i], pat[i]) for i in range(gate.arity) if pat[i] != "-"]
        if len(lits) <= max_arity:
            sink.append(
                LogicGate(
                    [s for s, _ in lits],
                    gate.output,
                    [Cube("".join(b for _, b in lits), pol)],
                )
            )
        else:
            _pairwise_tree(lits, "and", gate.output, pol, namer, sink)
        return

    care_counts = [sum(ch != "-" for ch in c.pattern) for c in gate.cover]
    if all(c == 1 for c in care_counts):
        # one care literal per cube: a disjunction of literals
        lits = []
        for c in gate.cover:
            i = next(k for k, ch in enumerate(c.pattern) if ch != "-")
            lit = (gate.inputs[i], c.pattern[i])
            if lit not in lits:
                lits.append(lit)
        by_sig: dict[str, set[str]] = {}
        for s, b in lits:
            by_sig.setdefault(s, set()).add(b)
        if any(len(bits) == 2 for bits in by_sig.values()):
            sink.append(_constant_gate(gate.output, pol))  # x or not-x: constant
            return
        if len(lits) == 1:
            s, b = lits[0]
            sink.append(LogicGate([s], gate.output, [Cube(b, pol)]))
        elif len(lits) <= max_arity:
            rows = []
            for i, (_, b) in enumerate(lits):
                rows.append(Cube("-" * i + b + "-" * (len(lits) - i - 1), pol))
            sink.append(LogicGate([s for s, _ in lits], gate.output, rows))
        else:
            _pairwise_tree(lits, "or", gate.output, pol, namer, sink)
        return

    # general cover: Shannon expansion on the first input
    x = gate.inputs[0]
    legs = []
    for bit in ("0", "1"):
        rows = [
            Cube(c.pattern[1:], pol)
            for c in gate.cover
            if c.pattern[0] in (bit, "-")
        ]
        branch = namer.fresh(gate.output)
        if not rows:
            sink.append(_constant_gate(branch, 1 - pol))
            const_val = 1 - pol
        elif any(set(c.pattern) <= {"-"} for c in rows):
            sink.append(_constant_gate(branch, pol))
            const_val = pol
        else:
            _decompose_gate(
                LogicGate(gate.inputs[1:], branch, rows), max_arity, namer, sink
            )
            const_val = None
        legs.append((bit, branch, const_val))

    leg_signals = []
    for bit, branch, const_val in legs:
        if const_val == 0:
            continue
        if const_val == 1:
            # branch contributes the bare selector literal
            leg_signals.append((x, bit))
            continue
        t = namer.fresh(gate.output)
        sink.append(LogicGate([x, branch], t, [Cube(f"{bit}1", 1)]))
        leg_signals.append((t, "1"))

    if not leg_signals:
        sink.append(_constant_gate(gate.output, 0))
    elif len(leg_signals) == 1:
        s, b = leg_signals[0]
        sink.append(LogicGate([s], gate.output, [Cube(b, 1)]))
    else:
        (sa, ba), (sb, bb) = leg_signals
        sink.append(
            LogicGate([sa, sb], gate.output, [Cube(f"{ba}-", 1), Cube(f"-{bb}", 1)])
        )


def bound_fanin(netlist: Netlist, max_arity: int) -> Netlist:
    """Rewrite the netlist so every gate has at most max_arity inputs.

    Conjunctive/disjunctive covers become balanced binary trees; other covers
    are Shannon-expanded on their first input. The result is simulation
    equivalent to the source netlist.
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
