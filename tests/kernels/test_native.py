"""Building, caching and loading the compiled sweep library (``kernels/native.py``)."""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import native
from repro.obs import tracing

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None, reason="no C compiler on PATH"
)


def _library(d):
    (lib,) = Path(d).glob("level_sweep-*.so")
    return lib, lib.with_suffix(".sha256")


def _solves(lib):
    """The loaded library's sweep runs a 3-row upper sweep correctly."""
    ptr = np.array([0, 0, 1, 3], dtype=np.int32)
    col = np.array([0, 0, 1], dtype=np.int32)
    val, diag = np.array([2.0, 1.0, 4.0]), np.array([1.0, 2.0, 4.0])
    b, x = np.array([1.0, 6.0, 19.0]), np.empty(3)
    lib.level_sweep(3, 1, ptr.ctypes.data, col.ctypes.data, val.ctypes.data, diag.ctypes.data,
                    b.ctypes.data, x.ctypes.data)
    return np.array_equal(x, [1.0, 2.0, 2.5])


def test_load_builds_once_and_reuses(tmp_path):
    fn, status = native.load_sweep([tmp_path])
    assert status.startswith(f"compiled: {tmp_path}") and _solves(fn)
    lib, sig = _library(tmp_path)
    assert sig.read_text() == native._digest(lib)
    built = lib.stat().st_mtime_ns
    with tracing() as rec:
        fn, _ = native.load_sweep([tmp_path])
    assert _solves(fn) and lib.stat().st_mtime_ns == built
    assert not [e for e in rec.events() if e.name == "kernels.compile_sweep"]


def test_compile_is_a_span(tmp_path):
    with tracing() as rec:
        native.load_sweep([tmp_path])
    (ev,) = [e for e in rec.events() if e.name == "kernels.compile_sweep"]
    assert ev.kind == "span" and ev.cat == "kernels"


def test_two_processes_build_into_an_empty_cache_at_once(tmp_path):
    script = (
        "import sys; from pathlib import Path\n"
        "from repro.kernels import native\n"
        "import test_native\n"
        "fn, status = native.load_sweep([Path(sys.argv[1])])\n"
        "print(status)\n"
        "sys.exit(0 if fn is not None and test_native._solves(fn) else 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(native.__file__).parents[2]), str(Path(__file__).parent)]))
    procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert all(out.startswith(f"compiled: {tmp_path}") for out, _ in outs)
    lib, sig = _library(tmp_path)
    assert sig.read_text() == native._digest(lib)
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".sha256", ".so"]  # no temp files


@pytest.mark.parametrize("damage", ["truncated", "no digest", "wrong digest"])
def test_a_damaged_library_is_rebuilt_not_loaded(tmp_path, damage):
    native.load_sweep([tmp_path])
    lib, sig = _library(tmp_path)
    good = lib.read_bytes()
    if damage == "truncated":  # written aside: the loaded library's pages must stay intact
        cut = tmp_path / "cut"
        cut.write_bytes(good[: len(good) // 2])
        os.replace(cut, lib)
    elif damage == "no digest":
        sig.unlink()
    else:
        sig.write_text("0" * 64)
    damaged = lib.stat().st_ino
    fn, status = native.load_sweep([tmp_path])
    assert status == f"compiled: {lib}" and _solves(fn)
    assert lib.stat().st_ino != damaged  # a fresh file, published by rename
    assert sig.read_text() == native._digest(lib)


def test_a_library_of_another_source_is_never_picked_up(tmp_path):
    native.load_sweep([tmp_path])
    lib, sig = _library(tmp_path)
    stale = tmp_path / "level_sweep-0000000000stale0000.so"
    lib.rename(stale)
    sig.rename(stale.with_suffix(".sha256"))
    fn, status = native.load_sweep([tmp_path])
    assert status == f"compiled: {lib}" and lib.exists() and _solves(fn)


def test_an_unwritable_cache_falls_back_to_a_temp_dir_then_to_numpy(tmp_path, monkeypatch):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the cache directory should be")
    monkeypatch.setattr(native, "PACKAGE_CACHE", blocked)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    fn, status = native.load_sweep()
    assert status.startswith(f"compiled: {tmp_path / 'tmp'}") and _solves(fn)
    fn, status = native.load_sweep([blocked])
    assert fn is None and status.startswith(f"numpy: {blocked}")


def test_a_cache_others_can_write_to_is_skipped(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    fn, status = native.load_sweep([shared])
    assert fn is None and "writable by others" in status


def test_no_compiler_means_the_numpy_loop(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert native.load_sweep() == (None, "numpy: no C compiler (cc or gcc) on PATH")


def test_a_missing_source_means_the_numpy_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "SOURCE", "no_such_sweep.c")
    fn, status = native.load_sweep([tmp_path])
    assert fn is None and status.startswith("numpy: cannot read no_such_sweep.c")
    assert list(tmp_path.iterdir()) == []


def test_a_compiler_that_cannot_be_stated_means_the_numpy_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: str(tmp_path / "gone-cc"))
    fn, status = native.load_sweep([tmp_path])
    assert fn is None and status.startswith("numpy: cannot read")


def test_a_failed_compile_means_the_numpy_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-fno-such-flag",))
    fn, status = native.load_sweep([tmp_path])
    assert fn is None and status.startswith("numpy: ") and "failed" in status
    assert list(tmp_path.iterdir()) == []


def test_the_fallback_is_one_instant(monkeypatch):
    monkeypatch.setattr(native, "_LIB", native._UNSET)
    monkeypatch.setattr(native, "_STATUS", native._STATUS)
    monkeypatch.setattr(native, "load_sweep", lambda: (None, "numpy: planted"))
    with tracing() as rec:
        assert native.compiled_sweep() is None and native.compiled_sweep() is None
    events = [e for e in rec.events() if e.name == "kernels.sweep_fallback"]
    assert len(events) == 1 and ("reason", "numpy: planted") in events[0].args
    assert native.sweep_status() == "numpy: planted"
