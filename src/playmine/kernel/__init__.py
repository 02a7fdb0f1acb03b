"""Kernel backend selection, and the build of the compiled kernel.

``_ckernel.c`` is a CPython extension with twins of the four ``_pykernel``
ops the search spends its time in: ``gen_moves``, ``minimax``, ``rollout``
and ``search``, and of ``new_memo``, which makes the rollout memo handle
that ``search`` may share across calls.  The other ops (``side_has_moves``, ``piece_counts``,
``evaluate``, ``winner``) and the constants are ``_pykernel``'s on every
backend.  On import the extension is loaded from
``__pycache__/_ckernel.<sha256><extension suffix>`` next to this file; the
hash covers the C source and the compile flags, so an edited source never
loads a stale binary.  When that file is missing it is compiled once, by the
interpreter's C compiler in a child process, into a temporary name that is
then moved into place, so concurrent importers never load a half-written
file.  Without a compiler, when the compile fails or when the directory is
not writable, the pure-Python ``_pykernel`` is used and the reason logged.
Set PLAYMINE_PURE=1 to force the pure kernel.
"""

import hashlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location

from . import _pykernel

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ckernel.c")
# no FMA contraction: a fused a * b + c would round differently from Python.
# Functions start on 64-byte boundaries: with the default alignment, moving
# every function by 16 bytes (one PLT entry fewer) made searches about 10%
# slower with no change to any hot loop, a swing that hid real changes.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-falign-functions=64")
COMPILE_TIMEOUT_S = 300


def _binary_path() -> str:
    """Where the extension built from the current source is cached."""
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as f:
        digest.update(f.read())
    digest.update(" ".join(CFLAGS).encode())
    return os.path.join(os.path.dirname(SOURCE), "__pycache__",
                        f"_ckernel.{digest.hexdigest()}{EXTENSION_SUFFIXES[0]}")


def compiler() -> list:
    """The command the build path compiles with: the interpreter's CC."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(target: str) -> None:
    """Compiles the source to ``target`` and deletes the binaries of earlier
    sources."""
    import subprocess
    import sysconfig

    cache = os.path.dirname(target)
    os.makedirs(cache, exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    cmd = [*compiler(), *CFLAGS, "-I" + sysconfig.get_paths()["include"],
           SOURCE, "-o", tmp]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True,
                       errors="replace", timeout=COMPILE_TIMEOUT_S)
        os.replace(tmp, target)
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.strip().splitlines() or [f"exit code {exc.returncode}"]
        reason = next((line for line in lines if "error" in line), lines[-1])
        raise OSError(f"{cmd[0]} failed: {reason}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{cmd[0]} took longer than {COMPILE_TIMEOUT_S} s") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for name in os.listdir(cache):
        if (name.startswith("_ckernel.") and name.endswith(EXTENSION_SUFFIXES[0])
                and name != os.path.basename(target)):
            try:
                os.unlink(os.path.join(cache, name))
            except FileNotFoundError:  # another importer got there first
                pass


def _load_compiled():
    path = _binary_path()
    if not os.path.exists(path):
        _build(path)
    name = __name__ + "._ckernel"
    spec = spec_from_file_location(name, path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


if os.environ.get("PLAYMINE_PURE"):
    _impl = _pykernel
    BACKEND = "python"
else:
    try:
        _impl = _load_compiled()
        BACKEND = "compiled"
    except (OSError, ImportError) as exc:
        import logging

        logging.getLogger(__name__).warning(
            "compiled kernel unavailable, using the pure-Python kernel: %s", exc)
        _impl = _pykernel
        BACKEND = "python"

WHITE = _pykernel.WHITE
RED = _pykernel.RED
KING_FLAG = _pykernel.KING_FLAG
RED_FLAG = _pykernel.RED_FLAG
ID_MASK = _pykernel.ID_MASK
MAX_DEPTH = _pykernel.MAX_DEPTH
MAX_POINTS = _pykernel.MAX_POINTS

encode_cell = _pykernel.encode_cell
cell_color = _pykernel.cell_color
cell_id = _pykernel.cell_id
cell_is_king = _pykernel.cell_is_king
prune_by_reward = _pykernel.prune_by_reward
side_has_moves = _pykernel.side_has_moves
piece_counts = _pykernel.piece_counts
evaluate = _pykernel.evaluate
winner = _pykernel.winner

gen_moves = _impl.gen_moves
minimax = _impl.minimax
rollout = _impl.rollout
search = _impl.search
new_memo = _impl.new_memo

__all__ = [
    "BACKEND", "WHITE", "RED", "KING_FLAG", "RED_FLAG", "ID_MASK", "MAX_DEPTH",
    "MAX_POINTS", "encode_cell", "cell_color", "cell_id", "cell_is_king", "prune_by_reward",
    "gen_moves", "side_has_moves", "piece_counts", "evaluate",
    "winner", "minimax", "rollout", "search", "new_memo",
]
