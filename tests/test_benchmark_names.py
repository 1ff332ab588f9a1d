"""The names the benchmark resolves in cwlab exist in this tree.

`benchmark/tracing.py` wraps every (module, attribute) of its TRACED list
by name, and `benchmark/workloads.py` calls cwlab through `cw.<module>.<name>`
attributes, so deleting or renaming one of them breaks the benchmark.
"""

import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert len(tracing.TRACED) > 20
    for module, attr, _, _ in tracing.TRACED:
        assert callable(_resolve(module, attr)), (module, attr)


def test_workload_attributes_resolve():
    names = set(re.findall(r"\bcw\.((?:\w+\.)*\w+)", (BENCH / "workloads.py").read_text()))
    assert "constructions.example_two" in names
    for dotted in names:
        _resolve("cwlab", dotted)
