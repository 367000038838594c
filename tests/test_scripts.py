import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_order_sensitivity_reaches_optimum(capsys):
    load_script("order_sensitivity").main()
    nodes = {
        line[:22].strip(): int(re.search(r"nodes=\s*(\d+)", line).group(1))
        for line in capsys.readouterr().out.splitlines()
    }
    assert nodes["paired (good)"] == 8
    assert nodes["interleaved (bad)"] == 16
    assert nodes["after sifting"] == nodes["after genetic search"] == nodes["exact optimum"] == 8


def test_desk_pipeline_stops_at_the_first_failed_step(tmp_path, monkeypatch, capsys):
    # every step's exit code is checked, the late ones (predict, synth, eval)
    # too: the run stops with the first nonzero code and prints no summary
    desk = load_script("run_desk_pipeline")
    for failing in ("predict", "synth", "eval"):
        ran = []

        def fake_main(argv):
            command = argv[2]
            ran.append(command)
            if command == "augment":
                (tmp_path / "corpus" / "blif").mkdir(parents=True, exist_ok=True)
                (tmp_path / "corpus" / "blif" / "c0.blif").write_text("")
            return 3 if command == failing else 0

        monkeypatch.setattr(desk, "main", fake_main)
        with pytest.raises(SystemExit) as stop:
            desk.run(tmp_path)
        assert stop.value.code == 3
        assert ran[-1] == failing and ran.count(failing) == 1
        assert "artifacts under" not in capsys.readouterr().out
