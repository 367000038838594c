#!/usr/bin/env python3
"""End-to-end desk-scale run: generate sources, augment, label, train,
predict, synthesize, and evaluate, all through the CLI entry points. The
run stops with a step's exit code as soon as one fails.

Usage: python3 scripts/run_desk_pipeline.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from bddseq.blif import write_blif
from bddseq.cli import main
from bddseq.gen import desk_corpus


def step(argv: list[str]) -> None:
    """Run one CLI command; stop the pipeline with its code if it fails."""
    print("$ bddseq " + " ".join(argv))
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)


def run(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(
        "seed = 42\n"
        "epochs = 40\n"
        "hidden = 64\n"
        "layers = 3\n"
        "heads = 4\n"
        "learning_rate = 0.003\n"
        "ga_population = 12\n"
        "ga_generations = 10\n"
        "variants_per_circuit = 1\n"
    )
    sources = workdir / "sources"
    sources.mkdir(exist_ok=True)
    for net in desk_corpus(100, seed=42, min_pis=6, max_pis=10):
        (sources / f"{net.name}.blif").write_text(write_blif(net))

    corpus = workdir / "corpus"
    run_dir = workdir / "run"
    argv = ["--config", str(cfg)]
    step(argv + ["augment", str(sources), "--variants", "1", "--out", str(corpus)])
    step(argv + ["label", str(corpus)])
    step(argv + ["train", str(corpus), "--out", str(run_dir)])
    sample = sorted((corpus / "blif").glob("*.blif"))[0]
    for mode in ("efficiency", "balance"):
        step(argv + [
            "predict", str(sample),
            "--weights", str(run_dir / "best.bin"),
            "--mode", mode, "--trace",
            "--out", str(workdir / f"pred_{mode}"),
        ])
    step(argv + [
        "synth", str(sample),
        str(workdir / "pred_balance" / f"{sample.stem}.order"),
        "--mode", "balance", "--out", str(workdir / "synth"),
    ])
    step(argv + [
        "eval", str(corpus),
        "--weights", str(run_dir / "best.bin"),
        "--out", str(workdir / "eval"),
    ])
    print(f"\nartifacts under {workdir}")


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="bddseq_"))
    run(target)
