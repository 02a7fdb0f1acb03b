"""Pure-Python game kernel: the hot path behind board ops and search.

A board state is a 64-byte string indexed by ``x * 8 + y``.  Cell encoding:
0 is empty, otherwise bits 0-4 hold the piece id, bit 5 the king flag and
bit 6 the side (0 white, 1 red).  White men advance toward x = 7 and crown
there; red men advance toward x = 0.  Dark squares have even x + y.

The compiled backend (``_ckernel.c``, built on first import by
``kernel/__init__.py``) mirrors this module function for function and must
stay behaviourally identical: move enumeration order, tie-breaking, return
types and the ValueError for a state that is not 64 bytes long are part of
the contract (``piece_counts`` checks the length for ``evaluate`` and
depth-0 ``minimax``, ``side_has_moves`` for ``winner``, ``gen_moves`` for
deeper ``minimax``).
This module is the fallback when no C compiler is available and the
reference the parity tests compare against.
"""

from __future__ import annotations

WHITE = 0
RED = 1

KING_FLAG = 0x20
RED_FLAG = 0x40
ID_MASK = 0x1F

INF = float("inf")

# Diagonal directions; white men use the first two, red men the last two.
DIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def encode_cell(color: int, piece_id: int, king: bool) -> int:
    return (piece_id & ID_MASK) | (KING_FLAG if king else 0) | (RED_FLAG if color else 0)


def cell_color(value: int) -> int:
    return (value >> 6) & 1


def cell_id(value: int) -> int:
    return value & ID_MASK


def cell_is_king(value: int) -> bool:
    return bool(value & KING_FLAG)


def _check_state(state):
    if len(state) != 64:
        raise ValueError("state must be 64 bytes")


def _piece_dirs(color, king):
    if king:
        return DIRS
    return DIRS[:2] if color == WHITE else DIRS[2:]


def _emit_chain(work, from_idx, land_idx, piece, crowned, captured, chains):
    new = bytearray(work)
    new[land_idx] = (piece | KING_FLAG) if crowned else piece
    chains.append((from_idx, land_idx, tuple(captured), crowned, bytes(new)))


def _extend_chains(work, from_idx, cx, cy, piece, color, king, far_x, dirs, captured, chains):
    """DFS over jump continuations; emits every chain that cannot be extended."""
    jumped = False
    for dx, dy in dirs:
        lx = cx + 2 * dx
        ly = cy + 2 * dy
        if lx < 0 or lx > 7 or ly < 0 or ly > 7:
            continue
        mid = ((cx + dx) << 3) | (cy + dy)
        mv = work[mid]
        if mv == 0 or ((mv >> 6) & 1) == color:
            continue
        land = (lx << 3) | ly
        if work[land] != 0:
            continue
        jumped = True
        work[mid] = 0
        captured.append(mv & ID_MASK)
        if not king and lx == far_x:
            # crowning ends a man's chain
            _emit_chain(work, from_idx, land, piece, True, captured, chains)
        elif not _extend_chains(work, from_idx, lx, ly, piece, color, king, far_x, dirs, captured, chains):
            _emit_chain(work, from_idx, land, piece, False, captured, chains)
        captured.pop()
        work[mid] = mv
    return jumped


def gen_moves(state, color, forced, capture_points, crown_points):
    """All legal moves for ``color``, in deterministic scan order.

    Returns tuples (from_idx, to_idx, captured_ids, crowned, reward, new_state).
    Per piece the capture chains come first, then quiet steps; pieces scan by
    ascending board index.  With ``forced`` set and any capture available only
    capture moves are returned.
    """
    _check_state(state)
    far_x = 7 if color == WHITE else 0
    out = []
    have_capture = False
    for idx in range(64):
        piece = state[idx]
        if piece == 0 or ((piece >> 6) & 1) != color:
            continue
        x = idx >> 3
        y = idx & 7
        king = bool(piece & KING_FLAG)
        dirs = _piece_dirs(color, king)

        chains = []
        work = bytearray(state)
        work[idx] = 0
        _extend_chains(work, idx, x, y, piece, color, king, far_x, dirs, [], chains)
        for frm, to, caps, crowned, new in chains:
            have_capture = True
            reward = capture_points * len(caps) + (crown_points if crowned else 0)
            out.append((frm, to, caps, crowned, reward, new))

        for dx, dy in dirs:
            nx = x + dx
            ny = y + dy
            if nx < 0 or nx > 7 or ny < 0 or ny > 7:
                continue
            nidx = (nx << 3) | ny
            if state[nidx] != 0:
                continue
            crowned = (not king) and nx == far_x
            new = bytearray(state)
            new[idx] = 0
            new[nidx] = (piece | KING_FLAG) if crowned else piece
            reward = crown_points if crowned else 0
            out.append((idx, nidx, (), crowned, reward, bytes(new)))

    if forced and have_capture:
        return [m for m in out if m[2]]
    return out


def side_has_moves(state, color):
    """True iff ``gen_moves`` for ``color`` would be non-empty.

    Every legal move starts with a step to an empty neighbour or a jump
    over an opponent onto an empty square, so it stops at the first piece
    that can make one, without building a move; a side with no pieces has
    no move.
    """
    _check_state(state)
    for idx in range(64):
        piece = state[idx]
        if piece == 0 or ((piece >> 6) & 1) != color:
            continue
        x = idx >> 3
        y = idx & 7
        king = bool(piece & KING_FLAG)
        for dx, dy in _piece_dirs(color, king):
            nx = x + dx
            ny = y + dy
            if nx < 0 or nx > 7 or ny < 0 or ny > 7:
                continue
            nv = state[(nx << 3) | ny]
            if nv == 0:
                return True
            if ((nv >> 6) & 1) != color:
                lx = x + 2 * dx
                ly = y + 2 * dy
                if 0 <= lx <= 7 and 0 <= ly <= 7 and state[(lx << 3) | ly] == 0:
                    return True
    return False


def piece_counts(state):
    """Returns (white_men, white_kings, red_men, red_kings)."""
    _check_state(state)
    wm = wk = rm = rk = 0
    for idx in range(64):
        v = state[idx]
        if v == 0:
            continue
        if v & RED_FLAG:
            if v & KING_FLAG:
                rk += 1
            else:
                rm += 1
        else:
            if v & KING_FLAG:
                wk += 1
            else:
                wm += 1
    return wm, wk, rm, rk


def evaluate(state, color, king_weight):
    wm, wk, rm, rk = piece_counts(state)
    white = (wm + wk - rm - rk) + king_weight * (wk - rk)
    return white if color == WHITE else -white


def winner(state, to_move):
    """-1 while undecided, else the winning color.

    The side to move loses when it has no legal move, which includes having
    no pieces; that is the terminal test of ``minimax`` and ``rollout``.
    """
    return -1 if side_has_moves(state, to_move) else 1 - to_move


def minimax(state, to_move, agent, depth, forced, capture_points, crown_points, king_weight):
    """Depth-limited alpha-beta minimax; score is from the agent's perspective.

    Returns ``(score, move)``, the move being None at depth 0 and when the
    side to move has no legal move.  Fail-soft alpha-beta (Knuth & Moore,
    1975) with the root searched on the open window: a move replaces the
    best one only on a strict improvement, so a root child that only ties
    the best fails low, the chosen move is the first co-optimal one in
    gen_moves order and the root score is exact, as in a full-width search.
    A node whose side has no legal move is terminal and scored by evaluate,
    like a depth-0 leaf; that is the same test as winner() != -1.
    """
    def search(state, to_move, depth, alpha, beta):
        if depth == 0:
            return evaluate(state, agent, king_weight), None
        moves = gen_moves(state, to_move, forced, capture_points, crown_points)
        if not moves:
            return evaluate(state, agent, king_weight), None
        nxt = 1 - to_move
        best = None
        if to_move == agent:
            best_score = -INF
            for mv in moves:
                score = search(mv[5], nxt, depth - 1, alpha, beta)[0]
                if score > best_score:
                    best_score = score
                    best = mv
                    if score > alpha:
                        alpha = score
                    if alpha >= beta:
                        break
        else:
            best_score = INF
            for mv in moves:
                score = search(mv[5], nxt, depth - 1, alpha, beta)[0]
                if score < best_score:
                    best_score = score
                    best = mv
                    if score < beta:
                        beta = score
                    if alpha >= beta:
                        break
        return best_score, best

    return search(state, to_move, depth, -INF, INF)


def rollout(state, to_move, sim_depth, mm_depth, forced, capture_points, crown_points, king_weight):
    """Minimax-guided playout; returns accumulated (white, red) rewards.

    Each step the side to move plays its own depth-``mm_depth`` minimax best
    move.  Stops after ``sim_depth`` steps or when minimax yields no move,
    which is when the side to move has lost (see ``winner``).  Requires
    mm_depth >= 1 (depth 0 rollouts are random and handled by the search
    layer).
    """
    _check_state(state)
    if mm_depth < 1:
        raise ValueError("rollout requires mm_depth >= 1")
    w = 0
    r = 0
    steps = 0
    turn = to_move
    cur = state
    while steps < sim_depth:
        _, mv = minimax(cur, turn, turn, mm_depth, forced,
                        capture_points, crown_points, king_weight)
        if mv is None:
            break
        if turn == WHITE:
            w += mv[4]
        else:
            r += mv[4]
        cur = mv[5]
        turn = 1 - turn
        steps += 1
    return w, r
