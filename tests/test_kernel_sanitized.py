"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The test builds ``_ckernel.c`` with ``-fsanitize=address,undefined`` into a
temporary directory and runs ``fuzz`` in a child process that preloads the
sanitizer runtimes: a seeded fuzz of every kernel op against the pure twin
on random, 12-a-side, all-king, jump-only and wrong-length boards, with
``search`` also given a ``randrange`` that raises or returns an index out of
range.  Each op must return what ``_pykernel`` returns or raise the same
exception; a memory error or undefined behaviour aborts the child.

To fuzz a build by hand (``PYTHONMALLOC=malloc`` lets ASan see the
kernel's allocations, which pymalloc would otherwise serve)::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONMALLOC=malloc PLAYMINE_PURE=1 \\
    PYTHONPATH=src:tests python tests/test_kernel_sanitized.py _ckernel.so [seed]
"""

import math
import os
import random
import subprocess
import sys
import sysconfig
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

from playmine import kernel
from playmine.kernel import _pykernel as pk
from helpers import random_board

SANITIZE = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined", "-shared", "-fPIC")
RUNTIMES = ("libasan.so", "libubsan.so")
FUZZ_SEED = 20


def _runtime(name):
    """Absolute path of a sanitizer runtime of the kernel's compiler, or None."""
    try:
        out = subprocess.run([*kernel.compiler(), f"-print-file-name={name}"],
                             capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    path = out.stdout.strip()
    return path if out.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


def test_sanitized_kernel_matches_pure_twin(tmp_path):
    runtimes = [_runtime(name) for name in RUNTIMES]
    if None in runtimes:
        pytest.skip("the compiler's ASan/UBSan runtimes are not installed")
    binary = tmp_path / "_ckernel_sanitized.so"
    subprocess.run([*kernel.compiler(), *SANITIZE, "-I" + sysconfig.get_paths()["include"],
                    kernel.SOURCE, "-o", str(binary)],
                   check=True, capture_output=True, text=True, timeout=300)
    tests = Path(__file__).parent
    env = {**os.environ,
           "LD_PRELOAD": " ".join(runtimes),
           "ASAN_OPTIONS": "detect_leaks=0",
           "UBSAN_OPTIONS": "print_stacktrace=1",
           "PYTHONMALLOC": "malloc",
           "PLAYMINE_PURE": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, str(Path(__file__)), str(binary), str(FUZZ_SEED)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.startswith("fuzzed "), proc.stdout


def _outcome(fn, args):
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the twins must raise alike
        return type(exc).__name__, str(exc)


def _positions(rng):
    """``(kind, state, side)``: random, 12-a-side, all-king, jump-only and
    wrong-length boards."""
    out = []
    for _ in range(40):
        out.append(("random", random_board(rng).state, rng.randrange(2)))
    for _ in range(15):
        out.append(("full", random_board(rng, n_pieces=24).state, rng.randrange(2)))
    for _ in range(15):
        state = random_board(rng, n_pieces=rng.randrange(4, 25)).state
        out.append(("kings", bytes(v | pk.KING_FLAG if v else 0 for v in state),
                    rng.randrange(2)))
    jumps = 0
    while jumps < 10:
        state = random_board(rng, n_pieces=rng.randrange(6, 20)).state
        side = rng.randrange(2)
        moves = pk.gen_moves(state, side, False, 7, 7)
        if moves and all(m[2] for m in moves):
            out.append(("jumps", state, side))
            jumps += 1
    for length in (0, 1, 63, 65, 128):
        out.append(("length", bytes(rng.randrange(128) for _ in range(length)), 0))
    return out


def _randrange(kind, seed):
    """A seeded ``randrange``, or one that raises or answers out of range."""
    if kind == "raise":
        def randrange(n):
            raise KeyError(n)
        return randrange
    if kind == "range":
        return lambda n: n
    return random.Random(seed).randrange


def fuzz(ck, seed):
    """Runs every op of ``ck`` and ``_pykernel`` on the same seeded inputs;
    returns the number of calls compared."""
    rng = random.Random(seed)
    calls = 0
    for kind, state, side in _positions(rng):
        forced = rng.random() < 0.7
        cap, crown = rng.randrange(10), rng.randrange(10)
        kw = rng.choice((0.0, 0.5, 1.5))
        ops = [("gen_moves", (state, side, forced, cap, crown)),
               ("side_has_moves", (state, side)),
               ("piece_counts", (state,)),
               ("evaluate", (state, side, kw)),
               ("winner", (state, side)),
               ("minimax", (state, side, rng.randrange(2), rng.randrange(3), forced,
                            cap, crown, kw)),
               ("rollout", (state, side, rng.randrange(7), rng.randrange(3), forced,
                            cap, crown, kw))]
        for op, args in ops:
            want = _outcome(getattr(pk, op), args)
            got = _outcome(getattr(ck, op), args)
            assert got == want, (kind, op, args, got, want)
            calls += 1
        for _ in range(4):
            iterations = rng.choice((0, 1, 2, 5, 30))
            depth = rng.randrange(3)
            explore = rng.choice((0.0, 1 / math.sqrt(2), 2.0, -1.0, math.inf))
            discount = rng.choice((0.5, 0.8, 1.0, 0.0))
            how = rng.choice(("seeded",) * 6 + ("raise", "range"))
            cb_seed = rng.randrange(1000)
            args = (state, side, iterations, rng.randrange(5), depth, forced, cap, crown, kw,
                    explore, discount, rng.random() < 0.5)
            want = _outcome(pk.search, args + (_randrange(how, cb_seed),))
            got = _outcome(ck.search, args + (_randrange(how, cb_seed),))
            assert got == want, (kind, "search", args, how, got, want)
            calls += 1
    return calls


if __name__ == "__main__":
    spec = spec_from_file_location("_ckernel", sys.argv[1])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else FUZZ_SEED
    print(f"fuzzed {fuzz(module, seed)} calls, seed {seed}")
