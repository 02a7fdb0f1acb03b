"""``minimax`` and ``rollout`` of both kernels against recorded outputs.

The parity tests hold the two kernels to each other; this golden holds both
to the outputs the plain depth-limited minimax gave before the search became
alpha-beta, so a change made to both twins at once cannot slip through.
Regenerate only when the search is meant to change:
``PYTHONPATH=src python tests/test_kernel_golden.py``.
"""

import json
import random
from pathlib import Path

import pytest

from playmine import kernel
from playmine.kernel import _pykernel as pk

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_golden.json"
CAPTURE_POINTS = 7
CROWN_POINTS = 7
KING_WEIGHT = 0.5


def seeded_board(rng, per_side, king_p):
    """``per_side`` pieces a side on random dark squares; a piece is a king
    with probability ``king_p`` and always on its crowning row."""
    darks = [(x, y) for x in range(8) for y in range(8) if (x + y) % 2 == 0]
    rng.shuffle(darks)
    cells = bytearray(64)
    for color in (pk.WHITE, pk.RED):
        far_x = 7 if color == pk.WHITE else 0
        for piece_id in range(1, per_side + 1):
            x, y = darks.pop()
            king = rng.random() < king_p or x == far_x
            cells[(x << 3) | y] = pk.encode_cell(color, piece_id, king)
    return bytes(cells)


def set_board(white, red):
    """White and red men on the given squares, ids in list order."""
    cells = bytearray(64)
    for color, squares in ((pk.WHITE, white), (pk.RED, red)):
        for piece_id, (x, y) in enumerate(squares, start=1):
            cells[(x << 3) | y] = pk.encode_cell(color, piece_id, False)
    return bytes(cells)


def golden_boards():
    """``(name, state)``: four 3-a-side boards, three 12-a-side boards,
    three boards of six kings a side, and two set boards: one where white
    has pieces but no move, one where white's only move is a jump."""
    yield "set/blocked", set_board([(0, 0)], [(1, 1), (2, 2), (6, 4)])
    yield "set/only-jump", set_board([(0, 0)], [(1, 1), (6, 4)])
    rng = random.Random(5)
    for kind, count, per_side, king_p in (("3v3", 4, 3, 0.3), ("12v12", 3, 12, 0.3),
                                          ("kings", 3, 6, 1.0)):
        for k in range(count):
            yield f"{kind}/{k}", seeded_board(rng, per_side, king_p)


def golden_cases():
    """``(case id, kernel function name, arguments)``: minimax at depths 1-4
    with the root maximizing (agent to move) and minimizing, and a rollout at
    sim depth 30 and minimax depth 3, for both sides to move and forced
    capture on and off."""
    for name, state in golden_boards():
        for color in (pk.WHITE, pk.RED):
            side = "white" if color == pk.WHITE else "red"
            for forced in (True, False):
                rule = "forced" if forced else "free"
                for agent, root in ((color, "max"), (1 - color, "min")):
                    for depth in (1, 2, 3, 4):
                        yield (f"{name}/{side}/{rule}/minimax/{root}/d{depth}", "minimax",
                               (state, color, agent, depth, forced, CAPTURE_POINTS,
                                CROWN_POINTS, KING_WEIGHT))
                yield (f"{name}/{side}/{rule}/rollout/sim30/mm3", "rollout",
                       (state, color, 30, 3, forced, CAPTURE_POINTS, CROWN_POINTS,
                        KING_WEIGHT))


def as_record(result):
    """JSON form of a minimax ``(score, move)`` or a rollout ``(w, r)``."""
    first, second = result
    if isinstance(second, tuple):
        frm, to, caps, crowned, reward, new = second
        second = [frm, to, list(caps), crowned, reward, new.hex()]
    return [first, second]


def golden_records(backend):
    return {cid: as_record(getattr(backend, fn)(*args))
            for cid, fn, args in golden_cases()}


@pytest.mark.parametrize("backend", [pk, kernel], ids=["python", "kernel"])
def test_matches_golden(backend):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = golden_records(backend)
    assert list(got) == list(golden)
    for cid, want in golden.items():
        assert got[cid] == want, cid


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = golden_records(kernel)
    assert golden_records(pk) == records, "the two kernels disagree"
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cid)}: {json.dumps(rec)}" for cid, rec in records.items()) + "\n}\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH} ({kernel.BACKEND} kernel)")
