#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Times the three hot entry points (move generation, depth-limited minimax,
full rollouts at smoke and at paper settings) on the opening position and a
bag of random midgame positions, then prints a side-by-side table with
speedups.

Usage: python benchmarks/bench_kernel.py [--seconds 1.0]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from playmine.board import Color, GameBoard, GamePiece, initial_board  # noqa: E402
from playmine.kernel import _pykernel  # noqa: E402

try:
    from playmine.kernel import _ckernel
except ImportError:
    _ckernel = None


def random_states(n, seed=123):
    rng = random.Random(seed)
    darks = [(x, y) for x in range(8) for y in range(8) if (x + y) % 2 == 0]
    states = []
    while len(states) < n:
        rng.shuffle(darks)
        pieces = []
        next_id = {Color.WHITE: 1, Color.RED: 1}
        for x, y in darks[: rng.randrange(4, 10)]:
            color = Color.WHITE if rng.random() < 0.5 else Color.RED
            king = rng.random() < 0.3
            if not king and ((color is Color.WHITE and x == 7)
                             or (color is Color.RED and x == 0)):
                king = True
            pieces.append(GamePiece(color, next_id[color], x, y, king))
            next_id[color] += 1
        board = GameBoard.from_pieces(pieces, pieces_per_side=12)
        if board.pieces(Color.WHITE) and board.pieces(Color.RED):
            states.append(board.state)
    return states


def timed(fn, seconds):
    # one warmup call, then count completions within the budget
    fn()
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < seconds:
        fn()
        calls += 1
    return calls / (time.perf_counter() - t0)


def build_workloads(kernel, states):
    opening = initial_board(3).state

    def gen():
        for s in states:
            kernel.gen_moves(s, 0, True, 7, 7)
            kernel.gen_moves(s, 1, True, 7, 7)

    def mm():
        for s in states[:10]:
            kernel.minimax(s, 0, 0, 3, True, 7, 7, 0.5)

    def roll():
        kernel.rollout(opening, 1, 10, 1, True, 7, 7, 0.5)

    def roll_paper():
        # the paper's rollout settings: sim depth 30, minimax depth 3
        kernel.rollout(opening, 1, 30, 3, True, 7, 7, 0.5)

    return [("gen_moves x80", gen), ("minimax depth3 x10", mm),
            ("rollout sim10/mm1", roll), ("rollout sim30/mm3", roll_paper)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="time budget per workload per backend")
    args = parser.parse_args()

    states = random_states(40)
    results = {}
    backends = [("python", _pykernel)]
    if _ckernel is not None:
        backends.append(("compiled", _ckernel))
    for name, kernel in backends:
        for wname, fn in build_workloads(kernel, states):
            results[(name, wname)] = timed(fn, args.seconds)

    workloads = [w for w, _ in build_workloads(_pykernel, states)]
    print(f"{'workload':<22} {'python/s':>12} {'compiled/s':>12} {'speedup':>9}")
    for wname in workloads:
        py = results[("python", wname)]
        if _ckernel is None:
            print(f"{wname:<22} {py:>12.1f} {'n/a':>12} {'n/a':>9}")
        else:
            cy = results[("compiled", wname)]
            print(f"{wname:<22} {py:>12.1f} {cy:>12.1f} {cy / py:>8.1f}x")
    if _ckernel is None:
        print("\ncompiled kernel not loaded: PLAYMINE_PURE is set, or the build "
              "on import failed (its warning above gives the reason)")


if __name__ == "__main__":
    main()
