"""The compiled-kernel build cache and the no-compiler fallback
(repro.native): cache hits never run the compiler, concurrent builds
only ever publish a complete library, and a host without a working
compiler keeps every result on the numpy paths."""

import json
import os
import shlex
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from repro.field.solinas import P
from repro.field.vector import vmul
from repro.ntt.plan import ORDER_DECIMATED, TWIST_NEGACYCLIC, plan_for_size
from repro.ntt.staged import execute_plan_batch

SRC = str(Path(repro.__file__).resolve().parent.parent)

needs_compiled = pytest.mark.skipif(
    not native.available(), reason="no C compiler"
)


def _python(code, **env):
    """Run ``code`` in a fresh interpreter; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(**env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _env(**env):
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = SRC + os.pathsep + full.get("PYTHONPATH", "")
    return full


#: Loads ``native.py`` on its own (it imports nothing from ``repro``),
#: so a probe process starts in a fraction of a package import.
_STANDALONE = f"""
import importlib.util, json, pathlib, sys, time
spec = importlib.util.spec_from_file_location("native", {native.__file__!r})
native = sys.modules["native"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(native)
"""


@needs_compiled
def test_cache_hit_does_not_run_the_compiler(tmp_path):
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc-wrapper"
    real = shlex.join(native.compiler())
    wrapper.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexec {real} "$@"\n')
    wrapper.chmod(0o755)
    code = _STANDALONE + "native.load()\nprint(native.library_path())\n"
    env = {"CC": str(wrapper), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    first = _python(code, **env)
    assert len(log.read_text().splitlines()) == 1
    second = _python(code, **env)
    assert second == first
    assert len(log.read_text().splitlines()) == 1
    assert Path(first.strip()).parent == tmp_path / "cache" / "repro"


_CONCURRENT_BUILD = _STANDALONE + """
import numpy as np
gate = pathlib.Path(sys.argv[1])
(gate / f"ready-{sys.argv[2]}").touch()
while not (gate / "go").exists():  # start every build at once
    time.sleep(0.001)
values = np.array([0, 1, 2**64 - 2**32, 2**32 - 1, 2**32 + 1], dtype=np.uint64)
product = native.mul_reduce(values, values[::-1].copy())
print(json.dumps([str(native.library_path()), product.tolist()]))
"""


@needs_compiled
def test_concurrent_builds_all_load_a_valid_library(tmp_path):
    gate, cache = tmp_path / "gate", tmp_path / "cache"
    gate.mkdir()
    workers = 4
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_BUILD, str(gate), str(i)],
            env=_env(XDG_CACHE_HOME=str(cache)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for i in range(workers)
    ]
    try:
        deadline = time.monotonic() + 120
        while len(list(gate.glob("ready-*"))) < workers:
            assert time.monotonic() < deadline, "probes never got ready"
            time.sleep(0.005)
        (gate / "go").touch()
        got = [json.loads(proc.communicate(timeout=120)[0]) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=60)
    assert [proc.returncode for proc in procs] == [0] * workers
    values = [0, 1, P - 1, 2**32 - 1, 2**32 + 1]
    want = [x * y % P for x, y in zip(values, values[::-1])]
    assert all(product == want for _, product in got)
    assert len({path for path, _ in got}) == 1
    # One published library, no temporary build files left behind.
    assert [p.name for p in (cache / "repro").iterdir()] == [
        Path(got[0][0]).name
    ]


_NO_COMPILER_PROBE = """
import json
import numpy as np
from repro import native
from repro.engine import Engine
from repro.field.vector import vmul
from repro.ntt import kernels
from repro.ntt.plan import ORDER_DECIMATED, TWIST_NEGACYCLIC, plan_for_size
from repro.ntt.staged import execute_plan_batch

try:
    kernels.resolve_kernel("compiled")
    error = None
except native.CompileError as exc:
    error = str(exc)
rows = np.arange(3 * 256, dtype=np.uint64).reshape(3, 256) * np.uint64(2**40 + 3)
plan = plan_for_size(256, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED)
a, b = 3**40000, 7**30000
print(json.dumps({
    "available": list(kernels.available_kernels()),
    "default": kernels.default_kernel(),
    "plan_kernel": plan.kernel,
    "error": error,
    "vmul": vmul(rows, rows[::-1].copy()).tolist(),
    "spectra": execute_plan_batch(rows, plan).tolist(),
    "product": Engine().multiply(a, b) == a * b,
}))
"""


def test_no_compiler_falls_back_to_numpy_with_identical_results(tmp_path):
    probe = json.loads(
        _python(
            _NO_COMPILER_PROBE,
            CC="/nonexistent",
            XDG_CACHE_HOME=str(tmp_path),
        )
    )
    assert probe["available"] == ["loop", "limb-matmul"]
    assert probe["default"] == probe["plan_kernel"] == "limb-matmul"
    # An explicit request is an error naming the failed compiler.
    assert "/nonexistent" in probe["error"]
    # Every result is the one this process computes (on the compiled
    # paths when they load here).
    rows = np.arange(3 * 256, dtype=np.uint64).reshape(3, 256) * np.uint64(
        2**40 + 3
    )
    plan = plan_for_size(256, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED)
    assert probe["vmul"] == vmul(rows, rows[::-1].copy()).tolist()
    assert probe["spectra"] == execute_plan_batch(rows, plan).tolist()
    assert probe["product"] is True
    # No library was published for the failed compiler.
    assert not list(tmp_path.glob("repro/*.so"))


def test_build_error_is_remembered_without_rerunning(monkeypatch, tmp_path):
    """A failed build raises the same typed error on every later call."""
    state = {}
    monkeypatch.setattr(native, "_state", state)
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(native.CompileError, match="/bin/false"):
        native.load()
    first = state["error"]
    monkeypatch.setenv("CC", sysconfig.get_config_var("CC") or "cc")
    with pytest.raises(native.CompileError) as again:
        native.load()
    assert again.value is first
    assert not native.available()
    assert native.mul_reduce(np.ones(4, np.uint64), np.ones(4, np.uint64)) is None
