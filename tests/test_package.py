"""What a fresh process imports: the lazy package surface, and the modules
each `fioa` command loads.  Every probe runs in its own interpreter, since
a module imported once stays in `sys.modules`."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC / "fioa" / "corpus"
MUTEX = str(CORPUS / "mutex.pw")
RING2 = str(CORPUS / "ring2.pw")
RING_EQ = str(CORPUS / "ring2_eq.pw")

# The modules only some commands use.
OPTIONAL = {"fioa.analysis", "fioa.dot", "fioa.executor", "fioa.examples"}


def _fresh(probe: str, *args: str):
    """Run `probe` in a new interpreter; what it prints is JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_COMMAND_PROBE = """
import contextlib, io, json, sys
from fioa.cli import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("fioa"))]))
"""


COMMANDS = [
    (["validate", MUTEX], 0, set()),
    (["cbr", RING2, "ring2"], 0, set()),
    (["check", "consistent", MUTEX, "closed_mutex"], 0, set()),
    (["run", RING2, "ring2", "--scheduler", "exhaustive", "--bound", "4"], 0, set()),
    (["equiv", RING_EQ, "ring_quasi", "ring_det"], 0, {"fioa.analysis"}),
    (["safety", RING2, "ring2", "--predicate", "pending is None"], 1, {"fioa.analysis"}),
    # The separation law runs on the corpus's two sides.
    (["laws", "separation"], 0, {"fioa.analysis", "fioa.examples"}),
    (["dot", RING2, "ring2"], 0, {"fioa.dot"}),
]


@pytest.mark.parametrize("argv, code, optional", COMMANDS, ids=[argv[0] for argv, _, _ in COMMANDS])
def test_a_fresh_command_loads_only_what_it_runs(argv, code, optional):
    got_code, loaded = _fresh(_COMMAND_PROBE, *argv)
    assert got_code == code
    assert OPTIONAL.intersection(loaded) == optional


_SURFACE_PROBE = """
import inspect, json, sys
import fioa
report = {"bare": sorted(m for m in sys.modules if m.startswith("fioa."))}
report["not_in_dir"] = sorted(set(fioa.__all__) - set(dir(fioa)))
report["submodule"] = fioa.analysis.trace_equivalent.__module__
try:
    fioa.nope
except AttributeError as exc:
    report["unknown"] = str(exc)
star = {}
exec("from fioa import *", star)
report["star"] = sorted(set(star) - {"__builtins__"})
# Each name is its submodule's object, and a class or function is named
# under the submodule that defines it.
report["misplaced"] = []
for name in fioa.__all__:
    module, value = sys.modules["fioa." + fioa._ORIGIN[name]], getattr(fioa, name)
    defined = not (inspect.isclass(value) or inspect.isfunction(value)) or value.__module__ == module.__name__
    if not (value is getattr(module, name) is star[name] and defined):
        report["misplaced"].append(name)
report["all"] = fioa.__all__
print(json.dumps(report))
"""


def test_the_package_surface_loads_on_first_use():
    report = _fresh(_SURFACE_PROBE)
    assert report["bare"] == []
    assert report["submodule"] == "fioa.analysis"
    assert report["unknown"] == "module 'fioa' has no attribute 'nope'"
    assert len(report["all"]) == len(set(report["all"])) == 91
    assert report["star"] == sorted(report["all"])
    assert report["misplaced"] == []
    assert report["not_in_dir"] == []


_DATACLASS_PROBE = """
import contextlib, dataclasses, io, json, sys
from fioa.cli import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli(sys.argv[1:])
defined = {
    id(value): f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items()) if name.startswith("fioa")
    for value in vars(module).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == name
}
print(json.dumps([code, sorted(defined.values())]))
"""


def test_validate_defines_few_value_types():
    """`fioa validate` defines at most 20 dataclasses: one `NetworkDef`
    and its `NetFactor`s describe a network from text to build."""
    code, defined = _fresh(_DATACLASS_PROBE, "validate", MUTEX)
    assert code == 0
    assert len(defined) <= 20, defined
