"""Module boundaries of the package: no module reads another's private
names, and ``mmwsec.numerics``, which the closed forms and both split
optimizers share, imports nothing of the package but ``errors``."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mmwsec"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """Each ``from .x import _name`` and each ``mod._name`` of a source,
    ``mod`` a package module bound by ``from . import mod``, ``from mmwsec
    import mod`` or ``import mmwsec.mod as mod``."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mmwsec"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                if node.module in (None, "mmwsec") and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names if alias.name.startswith("mmwsec.") and alias.asname)
    found += [
        f"line {node.lineno}: reads {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and _private(node.attr)
    ]
    return found


def test_no_module_reads_another_modules_private_names():
    reads = {path.name: private_reads(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_private_reads_finds_each_form():
    source = (
        "from . import checks, throughput as tp\nfrom .throughput import _rate, state_blocks\n"
        "from mmwsec.sweep import _gate\nimport mmwsec.numerics as num\n"
        "tp._gk21(1)\nchecks.e1_scaled(2)\nnum._laguerre_rule(0)\nx = tp.__name__\n"
    )
    assert private_reads(source) == [
        "line 2: imports _rate", "line 3: imports _gate", "line 5: reads tp._gk21", "line 7: reads num._laguerre_rule",
    ]


def test_numerics_imports_only_the_standard_library_numpy_and_errors():
    tree = ast.parse((SRC / "numerics.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {"numpy", ".errors"}
