"""The compiled kernel builds on first import and is the backend in use."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import playmine
from playmine import kernel

PURE = bool(os.environ.get("PLAYMINE_PURE"))
NO_COMPILER = shutil.which(kernel.compiler()[0]) is None


@pytest.mark.skipif(PURE, reason="PLAYMINE_PURE forces the pure kernel")
@pytest.mark.skipif(NO_COMPILER, reason="no C compiler on PATH")
def test_compiled_backend_is_active():
    assert playmine.kernel_backend == "compiled"


WARNINGS = ("-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror")


@pytest.mark.skipif(NO_COMPILER, reason="no C compiler on PATH")
def test_source_compiles_without_warnings(tmp_path):
    """The kernel's compiler, with the build's flags, finds nothing to warn
    about in the source.  It compiles for real: a syntax-only pass never
    reports unused functions or the warnings that need the optimizer."""
    import sysconfig

    proc = subprocess.run([*kernel.compiler(), *kernel.CFLAGS, *WARNINGS, "-c",
                           "-I" + sysconfig.get_paths()["include"], kernel.SOURCE,
                           "-o", str(tmp_path / "_ckernel.o")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _package_copy(tmp_path):
    src = Path(playmine.__file__).parent
    shutil.copytree(src, tmp_path / "playmine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "playmine" / "kernel"


def _import_kernel(root, **env):
    env = {**{k: v for k, v in os.environ.items() if k != "PLAYMINE_PURE"},
           "PYTHONPATH": str(root), **env}
    code = "import playmine.kernel as k; print(k.BACKEND)"
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, timeout=300, check=True)


@pytest.mark.skipif(NO_COMPILER, reason="no C compiler on PATH")
def test_first_import_builds_binary_named_by_source_hash(tmp_path):
    pkg = _package_copy(tmp_path)
    cache = pkg / "__pycache__"

    def binaries():
        return sorted(p.name for p in cache.iterdir() if "_ckernel" in p.name)

    assert _import_kernel(tmp_path).stdout.split() == ["compiled"]
    first = binaries()
    assert len(first) == 1 and first[0].endswith(".so")

    assert _import_kernel(tmp_path).stdout.split() == ["compiled"]
    assert binaries() == first  # loaded, not rebuilt

    with open(pkg / "_ckernel.c", "a") as f:
        f.write("/* edited */\n")
    assert _import_kernel(tmp_path).stdout.split() == ["compiled"]
    second = binaries()
    assert len(second) == 1 and second != first  # rebuilt, stale one removed


def _hide_compiler(tmp_path, pkg):
    if os.path.isabs(kernel.compiler()[0]):
        pytest.skip("the compiler is named by an absolute path")
    empty = tmp_path / "bin"
    empty.mkdir()
    return {"PATH": str(empty)}


def _block_cache(tmp_path, pkg):
    (pkg / "__pycache__").write_text("a file where the cache directory would be")
    return {}


@pytest.mark.parametrize("obstacle", [_hide_compiler, _block_cache],
                         ids=["no-compiler", "unwritable-cache"])
def test_falls_back_to_pure_kernel_with_one_logged_reason(tmp_path, obstacle):
    env = obstacle(tmp_path, _package_copy(tmp_path))
    proc = _import_kernel(tmp_path, **env)
    assert proc.stdout.split() == ["python"]
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    assert len(lines) == 1
    assert "compiled kernel unavailable" in lines[0]


def test_every_kernel_mutant_matches_the_source_once():
    """``kernel_mutants.py`` mutates ``_ckernel.c`` by (search, replace)
    pairs, so an edit to the kernel that moves a search text must update
    that mutant, not lose it."""
    import kernel_mutants

    assert kernel_mutants.mismatched(Path(kernel.SOURCE).read_text()) == []
