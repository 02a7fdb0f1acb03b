"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The test builds ``_ckernel.c`` with ``-fsanitize=address,undefined`` into a
temporary directory and runs ``fuzz`` in a child process that preloads the
sanitizer runtimes: a seeded fuzz of every op the compiled module exports
against the pure twin on random, 12-a-side, all-king, jump-only, lost and
wrong-length boards and on arbitrary bytes (pieces on any square, each any
nonzero byte, so the board masks' shifts and count-trailing-zeros run at
every edge), with depths up to 3, so that the masks a minimax derives
from its parent's and the move run two plies below its root, negative
depths, depths at and past ``MAX_DEPTH``
and past a C long, sides outside {0, 1}, points at and past
``MAX_POINTS``, floats for each side, point, depth, simulation depth and
iteration count, and ``search`` given seeds at and past the ends of the
64-bit range, negative seeds and a float seed.  A position's searches share
one rollout memo, so those with other rules than the first are refused,
and one in ten is passed the other twin's memo; then a second memo takes
searches at minimax depth 1 and three simulation depths, each three times:
the second time the handle replays the kept search, and the third, with one
iteration more, searches again, so that whole-rollout results are stored,
replayed and met at another depth.
Then searches at minimax
depths 1 and 2 share one memo per depth, long enough to grow its slot
table six times, to fill it to the memo's ``MEMO_MAX`` bound and to have
the next search empty it.  Last, searches at exploration 0 from the 1- and
2-a-side openings grow trees more than 20 plies deep, so backup's power
table is filled that far, and a one-iteration search from the 3-a-side
opening fills the table's last entry (depth 1 of 2).  Each op must return
what ``_pykernel`` returns or raise the same exception, and the twins'
memos must count alike; a memory error or undefined behaviour aborts the
child, and so does an exported op that the fuzz has no inputs for.

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
from playmine.board import initial_board
from playmine.kernel import _pykernel as pk
from helpers import memo_searches, random_board, random_bytes_state

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
           # ahead of the parent's entries, which may be where pytest is found
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                                       os.environ.get("PYTHONPATH")]))}
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
    """``(kind, state, side)``: random, 12-a-side, all-king, jump-only,
    lost (the side to move has no piece) and wrong-length boards, and
    arbitrary bytes."""
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
    for _ in range(10):
        side = rng.randrange(2)
        state = random_board(rng).state
        out.append(("lost", bytes(0 if v and pk.cell_color(v) == side else v
                                  for v in state), side))
    for length in (0, 1, 63, 65, 128):
        out.append(("length", bytes(rng.randrange(128) for _ in range(length)), 0))
    for _ in range(20):
        out.append(("bytes", random_bytes_state(rng), rng.randrange(2)))
    return out


# floats too: both twins must refuse them with the same TypeError
BAD_SIDES = (2, -1, 2**32, 1.0, 0.5)
EDGE_POINTS = (pk.MAX_POINTS, pk.MAX_POINTS + 1, 2**63, -1, 7.0)
EDGE_DEPTHS = (pk.MAX_DEPTH + 1, 2**64, -2**64, 1.0, 2.5)
EDGE_SEEDS = (0, 2**64 - 1, 2**64, -1, 2**70, 3.0)


def _side(rng, side):
    """``side``, or one of ``BAD_SIDES`` one time in ten."""
    return rng.choice(BAD_SIDES) if rng.random() < 0.1 else side


def _depth(rng, kind):
    """A depth from -1 to 3, or one of ``EDGE_DEPTHS`` one time in ten;
    half the time ``MAX_DEPTH`` on a lost board, where any depth ends at
    once."""
    if kind == "lost" and rng.random() < 0.5:
        return pk.MAX_DEPTH
    return rng.choice(EDGE_DEPTHS) if rng.random() < 0.1 else rng.randrange(-1, 4)


def _points(rng):
    """Small points, or one of ``EDGE_POINTS`` one time in ten."""
    return rng.choice(EDGE_POINTS) if rng.random() < 0.1 else rng.randrange(10)


def _seed(rng):
    """A seed below 1000, or one of ``EDGE_SEEDS`` one time in four."""
    return rng.choice(EDGE_SEEDS) if rng.random() < 0.25 else rng.randrange(1000)


def _count(rng, choices):
    """One of ``choices`` (a simulation depth or an iteration count), or the
    float 2.0 one time in twenty."""
    return 2.0 if rng.random() < 0.05 else rng.choice(choices)


def fuzz(ck, seed):
    """Runs every op of ``ck`` and ``_pykernel`` on the same seeded inputs;
    returns the number of calls compared."""
    rng = random.Random(seed)
    exported = sorted(name for name in vars(ck) if not name.startswith("_"))
    calls = shallow_rollouts = 0
    for kind, state, side in _positions(rng):
        forced = rng.random() < 0.7
        cap, crown = _points(rng), _points(rng)
        kw = rng.choice((0.0, 0.5, 1.5))
        ops = {"gen_moves": (state, _side(rng, side), forced, cap, crown),
               "minimax": (state, _side(rng, side), _side(rng, rng.randrange(2)),
                           _depth(rng, kind), forced, cap, crown, kw),
               "rollout": (state, _side(rng, side), _count(rng, range(7)), _depth(rng, kind),
                           forced, cap, crown, kw)}
        assert sorted([*ops, "new_memo", "search"]) == exported, \
            f"fuzz ops != exported {exported}"
        for op, args in ops.items():
            want = _outcome(getattr(pk, op), args)
            got = _outcome(getattr(ck, op), args)
            assert got == want, (kind, op, args, got, want)
            shallow_rollouts += want == ("ValueError", "rollout requires mm_depth >= 1")
            calls += 1
        # the position's searches share a memo, so a search whose rules
        # differ from the first is refused; one in ten passes the other
        # twin's memo, or none
        memos = (ck.new_memo(), pk.new_memo())
        for _ in range(4):
            iterations = _count(rng, (0, 1, 2, 5, 30))
            depth = _depth(rng, kind)
            explore = rng.choice((0.0, 1 / math.sqrt(2), 2.0, -1.0, math.inf))
            discount = rng.choice((0.5, 0.8, 1.0, 0.0))
            args = (state, _side(rng, side), iterations, _count(rng, range(5)), depth, forced,
                    cap, crown, kw, explore, discount, rng.random() < 0.5, _seed(rng))
            c_memo, p_memo = rng.choice([memos] * 8 + [memos[::-1], (None, None)])
            want = _outcome(pk.search, (*args, p_memo))
            got = _outcome(ck.search, (*args, c_memo))
            assert got == want, (kind, "search", args, got, want)
            assert memos[0].counts() == memos[1].counts(), (kind, "memo counts", args)
            calls += 1
        # one memo across simulation depths at one minimax depth: each depth
        # runs three times, the second time replaying the kept search and the
        # third, with one iteration more, searching again, so that its
        # rollouts replay the whole-rollout results or meet those of another
        # depth
        memos = (ck.new_memo(), pk.new_memo())
        sims = [rng.choice((0, 1, 4, 10)) for _ in range(3)]
        for iterations, sim in [(20, sim) for sim in sims * 2] + [(21, sim) for sim in sims]:
            args = (state, side, iterations, sim, 1, forced, cap, crown, kw, 1 / math.sqrt(2),
                    0.8, False, 0)
            want = _outcome(pk.search, (*args, memos[1]))
            got = _outcome(ck.search, (*args, memos[0]))
            assert got == want, (kind, "search across depths", args, got, want)
            assert memos[0].counts() == memos[1].counts(), (kind, "depths memo counts", args)
            calls += 1
    memos = {}  # by minimax depth: the compiled and the pure twin's memo
    for args in memo_searches():
        c_memo, p_memo = memos.setdefault(args[4], (ck.new_memo(), pk.new_memo()))
        assert ck.search(*args, memo=c_memo) == pk.search(*args, memo=p_memo), \
            ("search", args[1:])
        assert c_memo.counts() == p_memo.counts(), ("memo counts", args[1:])
        calls += 1
    # deep trees: the pure twin's backups report the deepest leaf
    deepest = 0
    backup = pk._Tree.backup

    def recording(tree, i, delta, discount):
        nonlocal deepest
        depth, j = 0, i
        while tree.parent[j] >= 0:
            depth, j = depth + 1, tree.parent[j]
        deepest = max(deepest, depth)
        backup(tree, i, delta, discount)

    pk._Tree.backup = recording
    try:
        for pieces, side, iterations, pruning in ((1, 0, 1000, False), (1, 1, 1000, True),
                                                  (2, 0, 1000, True), (2, 1, 1000, False),
                                                  (3, 0, 1, False)):
            args = (initial_board(pieces).state, side, iterations, 4, 1, True, 7, 7, 0.5, 0.0,
                    0.8, pruning, 0)
            assert ck.search(*args) == pk.search(*args), ("deep search", args[1:])
            calls += 1
    finally:
        pk._Tree.backup = backup
    assert deepest > 20, f"the deep searches reached only depth {deepest}"
    # the compiled rollout runs search's loop with no stream, so it must
    # refuse random (depth-0) rollouts as the pure twin does
    assert shallow_rollouts, "no rollout below minimax depth 1 was fuzzed"
    return calls


if __name__ == "__main__":
    spec = spec_from_file_location("_ckernel", sys.argv[1])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else FUZZ_SEED
    print(f"fuzzed {fuzz(module, seed)} calls, seed {seed}")
