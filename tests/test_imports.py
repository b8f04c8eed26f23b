"""The import graph: lazy package exports and a standard-library-only core.

Importing a module loads only that module's real dependencies: every
package ``__init__`` (except :mod:`repro.core`) resolves its public
names on first access through a name -> module table, and no module
imports anything outside the standard library.  The cold-start checks
run in fresh interpreters, since the test process has long since
imported the whole library.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.universe",
    "repro.isomorphism",
    "repro.knowledge",
    "repro.protocols",
    "repro.causality",
    "repro.simulation",
    "repro.applications",
)


def fresh_python(code: str, *flags: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` importable; return
    its stdout."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def export_table(package) -> dict[str, str]:
    """The name -> module table a lazy ``__init__`` hands to
    ``_lazy_exports``, read from its source."""
    tree = ast.parse(Path(package.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == (
            "_lazy_exports"
        ):
            return ast.literal_eval(node.args[2])
    raise AssertionError(f"{package.__name__} has no export table")


class TestImportGraph:
    def test_explorer_loads_only_its_dependencies(self):
        loaded = set(json.loads(fresh_python(
            "import json, sys\n"
            "import repro.universe.explorer\n"
            "print(json.dumps(sorted(sys.modules)))"
        )))
        assert not loaded & {"repro.universe.checkpoint", "repro.universe.sharded"}
        for package in ("networkx", "multiprocessing", "repro.isomorphism",
                        "repro.knowledge", "repro.simulation"):
            assert not [
                m for m in loaded if m == package or m.startswith(package + ".")
            ]

    def test_arena_loads_no_storage_shim(self):
        """The arena lives in RAM: building one loads neither the file-ops
        shim nor the storage retry policy."""
        loaded = set(json.loads(fresh_python(
            "import json, sys\n"
            "import repro.universe.arena\n"
            "print(json.dumps(sorted(sys.modules)))"
        )))
        assert "repro.universe.arena" in loaded
        assert not loaded & {"repro.universe.fileops", "repro.universe.retry"}

    def test_every_module_imports_without_site_packages(self):
        """``python -S`` keeps site-packages off ``sys.path``, so a
        third-party import anywhere under ``repro`` fails here."""
        code = textwrap.dedent(f"""\
            import importlib, pkgutil, sys
            sys.path.insert(0, {str(SRC)!r})
            import repro

            def fail(name):
                raise ImportError(name)

            names = [info.name for info in pkgutil.walk_packages(
                repro.__path__, "repro.", onerror=fail)]
            for name in names:
                importlib.import_module(name)
            print(len(names))
        """)
        assert int(fresh_python(code, "-S")) > 50


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_table_is_all(self, name):
        package = importlib.import_module(name)
        extra = {"__version__"} if name == "repro" else set()
        assert set(export_table(package)) | extra == set(package.__all__)
        assert len(package.__all__) == len(set(package.__all__))

    def test_every_export_is_the_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for export, module in export_table(package).items():
            defining = importlib.import_module(module, name)
            assert getattr(package, export) is getattr(defining, export)

    def test_dir_lists_all(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError) as error:
            getattr(package, "no_such_export")
        assert str(error.value) == (
            f"module {name!r} has no attribute 'no_such_export'"
        )

    def test_star_import_binds_all_from_cold(self, name):
        missing = fresh_python(
            f"import {name} as package\n"
            f"namespace = {{}}\n"
            f"exec('from {name} import *', namespace)\n"
            f"print(sorted(set(package.__all__) - set(namespace)))"
        )
        assert missing.strip() == "[]"


def test_extension_event_is_an_oracle_export():
    """``extension_event`` names an edge's event from two configurations:
    the object oracles use it, and it is exported from their module."""
    import repro.isomorphism.extension
    import repro.isomorphism.reference

    assert export_table(repro.isomorphism)["extension_event"] == ".reference"
    assert (
        repro.isomorphism.extension_event
        is repro.isomorphism.reference.extension_event
    )
    assert not hasattr(repro.isomorphism.extension, "extension_event")


def test_quickstart_in_package_docstring_runs():
    """The top-level docstring's Quickstart, run in a fresh interpreter:
    p knows q got the ping in exactly the one configuration where the
    pong has come back."""
    block = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
    out = fresh_python(block).strip()
    assert out.startswith("frozenset({Configuration(")
    assert out.count("Configuration(") == 1
    assert "rcv[pong#0(q->p)]" in out
