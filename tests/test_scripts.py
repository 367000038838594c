import importlib.util
import re
from pathlib import Path

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
