"""The import structure: lazy package exports and per-command imports.

Every package ``__init__`` names each export once, in the table it
hands to :func:`repro.utils.lazy.lazy_exports`, and imports nothing
else from ``repro``.  These tests pin three promises:

* each package's ``__all__`` is its table, and every name in it
  resolves to the object its table module defines;
* every module under ``src/repro`` imports as the first ``repro``
  import of an interpreter (no import cycle hides behind an eager
  package ``__init__``);
* ``resim simulate --trace-file F`` loads none of the generator,
  sweep, hardware-model or service code it never runs, and prints what
  an in-process run prints.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGE_INITS = sorted((SRC / "repro").rglob("__init__.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _subprocess_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def _export_table(init: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """The ``repro`` imports of a package ``__init__`` and its export
    table as (name, defining module) pairs, read from the source."""
    tree = ast.parse(init.read_text())
    imports = [f"{node.module}:{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("repro")
               for alias in node.names]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "lazy_exports"]
    assert len(calls) == 1, f"{init}: one lazy_exports table expected"
    table = ast.literal_eval(calls[0].args[1])
    return imports, [(name, module) for module, names in table.items()
                     for name in names.split()]


@pytest.mark.parametrize(
    "init", PACKAGE_INITS,
    ids=[_module_name(init) for init in PACKAGE_INITS])
def test_package_exports_are_its_table(init):
    imports, table = _export_table(init)
    assert imports == ["repro.utils.lazy:lazy_exports"]
    names = [name for name, _ in table]
    assert len(names) == len(set(names)), "an export is named twice"
    package = importlib.import_module(_module_name(init))
    assert package.__all__ == names
    assert set(names) <= set(dir(package))
    for name, module in table:
        assert getattr(package, name) is getattr(
            importlib.import_module(module), name), name
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        package.nonesuch  # noqa: B018


def test_backends_are_complete_where_read():
    """A fresh interpreter, so no earlier import has registered
    ``queue`` already (this module imports ``repro.cli``, which does)."""
    probe = ("from repro.exec import BACKENDS\n"
             "print(' '.join(sorted(BACKENDS)))\n")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) >= {"serial", "pool", "queue"}


def test_resimbench_aliases_resolve():
    from repro.exec import region_units, merge_region_documents
    from repro.exec.slice import merge_slice_documents, slice_units
    assert region_units is slice_units
    assert merge_region_documents is merge_slice_documents


def test_every_module_imports_first():
    """One interpreter imports each module after dropping every
    ``repro`` module the previous import loaded."""
    modules = sorted(_module_name(path)
                     for path in (SRC / "repro").rglob("*.py"))
    probe = (
        "import importlib, sys\n"
        "failed = []\n"
        "for name in sys.argv[1:]:\n"
        "    for key in [k for k in sys.modules\n"
        "                if k == 'repro' or k.startswith('repro.')]:\n"
        "        del sys.modules[key]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as error:\n"
        "        failed.append(f'{name}: {type(error).__name__}: {error}')\n"
        "print('\\n'.join(failed))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, *modules],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


#: Modules ``resim simulate --trace-file`` never runs, so never loads.
NOT_LOADED_BY_STORED_TRACE_SIMULATE = (
    "repro.sweep.runner", "repro.sweep.search",
    "repro.workloads.synthetic", "repro.workloads.tracegen",
    "repro.functional", "repro.isa.assembler", "repro.fpga.vhdlgen",
    "repro.multicore", "repro.cosim", "repro.serve",
)


def test_stored_trace_simulate_loads_only_what_it_runs(tmp_path, capsys):
    trace = tmp_path / "gzip.rtrc"
    assert main(["trace", "gzip", str(trace), "--budget", "1500"]) == 0
    capsys.readouterr()
    argv = ["simulate", "--trace-file", str(trace)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    probe = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    assert [name for name in loaded
            for unused in NOT_LOADED_BY_STORED_TRACE_SIMULATE
            if name == unused or name.startswith(unused + ".")] == []
    assert done.stdout == expected
