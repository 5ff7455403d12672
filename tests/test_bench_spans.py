"""The benchmark's traced runs name library functions and methods in
``perfbench/spans.py``; a rename in the library must fail here rather than
leave a metric group silently empty.  Its opring size classes count
inversions against the convention orders in ``perfbench/workloads.py``,
which must stay the library's.  These modules are only read here, never
changed or installed."""

import ast
import importlib
from pathlib import Path
from types import ModuleType, SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    # compiled from source: no bytecode cache is written next to the file
    module = ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_group_name_is_a_wrapped_library_attribute():
    spans = _load_spans()
    lib = SimpleNamespace(**{layer: importlib.import_module("carlitz." + layer)
                             for layer in spans.LAYERS})
    wrapped = {name for _, _, name, _, _ in spans._targets(lib)}
    for group, names in spans.GROUPS.items():
        for name in names:
            obj = lib
            for part in name.split("."):
                assert hasattr(obj, part), "%s (group %s) does not resolve" % (name, group)
                obj = getattr(obj, part)
            assert callable(obj), name
            assert name in wrapped, "%s (group %s) is not traced" % (name, group)


def test_workload_convention_orders_are_the_library_orders():
    from carlitz.opring import CONVENTION_ORDERS
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "CONVENTION_ORDER" for t in node.targets)]
    assert len(found) == 1, "perfbench/workloads.py defines CONVENTION_ORDER once"
    ranks = {convention: {kind: r for r, kind in enumerate(order)}
             for convention, order in CONVENTION_ORDERS.items()}
    assert ast.literal_eval(found[0]) == ranks
