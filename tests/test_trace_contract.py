"""Every layer that BENCHMARK.json traces is a callable in qclab under that
name, so a rename fails here instead of showing up as an absent span."""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_layers():
    """`module.function` of every per-layer metric named module.function.stat."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return sorted({
        entry["name"].rpartition(".")[0] for entry in metrics if entry["name"].count(".") == 2
    })


def test_every_traced_layer_is_a_qclab_callable():
    layers = traced_layers()
    assert "impossibility.build_constraint_system" in layers
    missing = []
    for layer in layers:
        module, _, function = layer.partition(".")
        try:
            home = importlib.import_module(f"qclab.{module}")
        except ModuleNotFoundError:
            missing.append(layer)
            continue
        if not callable(getattr(home, function, None)):
            missing.append(layer)
    assert not missing, f"traced layers missing from qclab: {missing}"
