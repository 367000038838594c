"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload classical --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the library from `src/` next
to this directory and writes no files besides Python's bytecode caches. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it give every metric by name and
unit, the sample count, the error rate and the machine.

With `--trace 0` the run sets up the workload several times (at least three,
more for a cheap set-up; it reports the median set-up time) and then runs
items in a closed loop, in whole passes over the workload's items, for
`--seconds` seconds of item time and at least `workloads.MIN_ITEMS` items,
reporting the end-to-end metrics. Every time is rescaled to a reference
speed of the machine by a gauge read between items (see `speed`); the times
as measured are printed above the result line. With `--trace 1` it runs a
fixed number of items three times from a fresh set-up: untraced, traced, and
traced again. It reports the per-layer metrics of the first traced pass, the
tracing overhead against the untraced pass, and fails if a counter differs
between the two traced passes or if a layer the workload was chosen for
reports zero.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# numpy's BLAS starts a thread per core for larger matrix products. The run
# is single-threaded: with a second BLAS thread on a 2-core machine, a stall
# of either core stalls each product, and `train` epochs run at twice their
# usual time for seconds at a stretch. Set before numpy is imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-ups per end-to-end run: at least SETUP_MIN_REPS, more while they take
# under SETUP_BUDGET_S in all, so that a set-up of milliseconds is timed many times
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 30
SETUP_BUDGET_S = 1.0
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s run limit
# items per pass of a traced run: one cycle of the circuit schedules (20
# `train` epochs), a few seconds untraced
TRACE_ITEMS = 20
# per-layer metrics that must be nonzero on each workload, so that a binding
# the tracer missed cannot pass as a layer doing no work
REQUIRED = {
    "classical": [
        "bdd.ga.s", "bdd.transfer.calls", "bdd.transfer.s", "bdd.apply.calls",
        "bdd.exact.s", "bdd.exact.orders", "blif.parse.s", "blif.bound_fanin.s",
    ],
    "sift_wide": [
        "bdd.sift.s", "bdd.swap.calls", "bdd.swap.s", "bdd.node_count.calls",
        "bdd.node_count.s", "bdd.build.calls", "bdd.build.s", "bdd.peak_nodes",
        "synth.synthesize.s", "synth.gates",
    ],
    "predict": [
        "bdd.build.calls", "bdd.build.s", "search.decode.s.efficiency",
        "search.decode.s.balance", "search.decode.s.quality", "search.decoder_steps",
        "search.rerank.s", "search.rerank.candidates", "model.encode.calls",
        "autodiff.tensors", "graph.featurize.s", "blif.parse.s", "blif.bound_fanin.s",
        "synth.synthesize.s", "synth.verify.s", "synth.gates",
    ],
    "train": [
        "model.encode.calls", "model.encode.s", "model.forward.s", "autodiff.tensors",
        "autodiff.backward.s", "autodiff.adam.s", "search.decode.s.efficiency",
    ],
}


def _import_library():
    src = ROOT / "src"
    if not (src / "bddseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src}/bddseq")
    sys.path.insert(0, str(src))
    import bddseq

    if Path(bddseq.__file__).resolve().parent != (src / "bddseq").resolve():
        raise SystemExit(f"error: imported bddseq from {bddseq.__file__}, not {src}")


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Identifies the library sources where there is no git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment() -> dict:
    import numpy

    return {
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Loop:
    """Closed-loop item runner; checks run after each item, outside its time."""

    def __init__(self, workload, failures):
        from speed import Gauge

        self.workload = workload
        self.failures = failures  # exceptions that count as a failed item
        self.gauge = Gauge()
        self.latencies: list[float] = []
        self.failed = 0
        self.figures: dict[str, float] = {}

    def step(self, i: int, tracer=None) -> None:
        """Run item i, and check it if its input is new; a tracer, if given,
        sees the run but not the check. A later pass runs the same inputs
        again, and the library is deterministic, so its items go unchecked."""
        wl = self.workload
        item = wl.items[i % len(wl.items)]
        run = wl.run
        if tracer is not None:
            run = tracer.install(wl.run)
        self.gauge.read()
        start = time.perf_counter()
        try:
            out = run(item)
        except self.failures as exc:
            self._fail(i, exc)
            return
        finally:
            self.latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
        if i >= len(wl.items):
            return
        try:
            figures = wl.check(item, out)
        except self.failures as exc:
            self._fail(i, exc)
            return
        for key, value in figures.items():
            self.figures[key] = self.figures.get(key, 0) + value

    def scaled(self) -> list[float]:
        """Item times rescaled to the reference speed (see `speed`)."""
        self.gauge.read()  # the probe after the last item
        return [t * self.gauge.scale(i) for i, t in enumerate(self.latencies)]

    def _fail(self, i: int, exc: BaseException) -> None:
        self.failed += 1
        print(f"item {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def _failures():
    from bddseq.bdd import NodeCapExceeded
    from bddseq.model import TrainingDiverged
    from workloads import ItemFailed

    # synthesize_circuit raises RuntimeError when exhaustive verification fails
    return (NodeCapExceeded, TrainingDiverged, ItemFailed, RuntimeError)


def run_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    from speed import REFERENCE_S, Gauge
    from workloads import MIN_ITEMS, WORKLOADS

    began = time.perf_counter()
    gauge = Gauge()
    setups: list[float] = []
    raw_setups: list[float] = []
    while len(setups) < SETUP_MIN_REPS or (
        sum(raw_setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPS
    ):
        wl = None  # free the previous set-up before timing the next
        gc.collect()
        wl = WORKLOADS[name]()
        raw, scaled = gauge.time_call(lambda: wl.setup(seed))
        raw_setups.append(raw)
        setups.append(scaled)
    loop = Loop(wl, _failures())
    problems = []
    i = 0
    while sum(loop.latencies) < seconds or i < MIN_ITEMS or i % wl.PASS:
        if time.perf_counter() - began > WALL_LIMIT_S:
            problems.append(f"wall limit reached after {i} of at least {MIN_ITEMS} items")
            break
        loop.step(i)
        i += 1
    lat_ms = [t * 1000.0 for t in loop.scaled()]
    values = {
        "items_per_s": 1000.0 * len(lat_ms) / sum(lat_ms),
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "nodes_total": loop.figures.get("nodes", 0),
        "qc_total": loop.figures.get("qc", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_ms = [t * 1000.0 for t in loop.latencies]
    pace = REFERENCE_S / statistics.median(loop.gauge.probes)
    print(f"speed {pace:.4f} of the reference; as measured, before rescaling:"
          f" items_per_s {1000.0 * len(raw_ms) / sum(raw_ms):.6g}"
          f" latency_ms.p50 {statistics.median(raw_ms):.6g}"
          f" setup_s {statistics.median(raw_setups):.6g}")
    print(f"setup {len(setups)} set-ups, median {statistics.median(setups):.6g} s")
    print(f"samples {len(lat_ms)} items; p90 has {len(lat_ms) - int(0.9 * len(lat_ms))} beyond it")
    print(f"error_rate {loop.failed / len(lat_ms):.4f} ratio ({loop.failed} of {len(lat_ms)})")
    if "loss" in loop.figures:
        print(f"loss_final {loop.figures['loss']:.6f} nats (epoch {MIN_ITEMS - 1})")
    return values, len(lat_ms), loop.failed, problems


def run_traced(name: str, seed: int) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer
    from workloads import WORKLOADS

    count = TRACE_ITEMS
    problems: list[str] = []
    passes = []
    attempted = failed = 0
    for traced in (False, True, True):
        wl = WORKLOADS[name]()
        wl.setup(seed)
        loop = Loop(wl, _failures())
        tracer = Tracer() if traced else None
        for i in range(count):
            loop.step(i, tracer)
        if tracer:
            problems += [f"tracer: the library has no {t}" for t in sorted(tracer.missing)]
        attempted += len(loop.latencies)
        failed += loop.failed
        passes.append((sum(loop.scaled()), tracer))
    (untraced_s, _), (traced_s, first), (_, second) = passes
    values = first.metrics()
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    calls = {k: v for k, v in values.items() if not k.endswith(".s") and ".s." not in k}
    again = second.metrics()
    for key in calls:
        if key != "trace.overhead_pct" and again.get(key) != calls[key]:
            problems.append(f"counter {key} differs between traced passes: {calls[key]} vs {again.get(key)}")
    for key in REQUIRED[name]:
        if not values.get(key):
            problems.append(f"per-layer metric {key} is zero on {name}")
    ranked = sorted(first.self_times().items(), key=lambda kv: -kv[1])
    print("self time by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked[:8]))
    print(f"items/s untraced {count / untraced_s:.3f}, traced {count / traced_s:.3f}")
    return values, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload}")
    os.environ.update(BLAS_THREADS)
    _import_library()
    sys.path.insert(0, str(HERE))
    print("env " + json.dumps(_environment(), sort_keys=True))

    if args.trace:
        values, attempted, failed, problems = run_traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, problems = run_end_to_end(
            args.workload, args.seed, args.seconds
        )
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
