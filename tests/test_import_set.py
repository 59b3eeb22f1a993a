"""Import-set contract: a cold ``compile`` loads only the selector.

``import repro`` loads the package shell; subpackages and the names a
compile does not use (dataflow, run reports, the LLVM baseline) are
imported on first attribute access (PEP 562 ``__getattr__``).  Each
check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: modules a one-shot compile (or a bare ``import repro``) must not load
DEFERRED = (
    "repro.fabric",
    "repro.serve",
    "repro.lint",
    "repro.verify",
    "repro.evaluation",
    "repro.analysis.dataflow",
    "repro.observe.report",
    "repro.machine.llvm_baseline",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "numpy",
)

#: packages whose ``__all__`` mixes eager and lazy names
PACKAGES = ("repro", "repro.analysis", "repro.observe", "repro.machine")


def fresh(code: str):
    """Run ``code`` in a new interpreter; return its last stdout line,
    parsed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def loaded_after(setup: str):
    return set(fresh(
        "import json, sys\n"
        f"{setup}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))


def test_bare_import_loads_only_the_package_shell():
    loaded = loaded_after("import repro")
    assert not loaded & set(DEFERRED)
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro._lazy",
    }


def test_cold_compile_loads_only_the_selector():
    # Exactly what ``python -m repro compile add --target arm-neon``
    # runs, with the listing captured so the last line stays the JSON.
    loaded = loaded_after(
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro', 'compile', 'add', '--target', 'arm-neon']\n"
        "with contextlib.redirect_stdout(io.StringIO()) as listing:\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__',"
        " alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert 'PITCHFORK' in listing.getvalue()\n"
    )
    assert sorted(loaded & set(DEFERRED)) == []
    # ...while the selector itself did load
    assert {
        "repro.lifting.lifter", "repro.machine.lowerer",
        "repro.analysis.intervals", "repro.pipeline",
    } <= loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_lazily(package):
    # In a fresh process, before anything resolved them: each ``__all__``
    # name is listed by dir() and resolves to the object its defining
    # module holds.
    report = fresh(
        "import importlib, json\n"
        f"pkg = importlib.import_module({package!r})\n"
        "listed = set(dir(pkg))\n"
        "bad = []\n"
        "for name in pkg.__all__:\n"
        "    value = getattr(pkg, name)\n"
        "    home = getattr(value, '__module__', None)\n"
        "    if name not in listed:\n"
        "        bad.append(name + ' missing from dir()')\n"
        "    elif home and getattr(importlib.import_module(home), name,"
        " value) is not value:\n"
        "        bad.append(name + ' resolved to a copy')\n"
        "print(json.dumps({'names': len(pkg.__all__), 'bad': bad}))\n"
    )
    assert report["names"] > 0
    assert report["bad"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_still_raise_attribute_error(package):
    import importlib

    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
    assert not hasattr(pkg, "no_such_name")
