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

``search`` is the whole MCTS turn: UCT selection, one expansion, a rollout
(``rollout``, or random moves at minimax depth 0) and the discounted backup,
repeated ``iterations`` times.  Both twins keep the same float operations in
the same order, so they choose bit-identical moves:

* UCT score ``reward / visits + c * sqrt(log_n / visits)`` with
  ``log_n = log(parent visits)`` (0.0 at 0 visits), compared with strict
  ``>`` so the first child in move order wins ties;
* backup ``reward += discount ** dist * delta`` on both sides, where
  ``delta`` is the rollout's rewards plus the leaf's entry-move reward on
  the side that played it;
* final pick: the root child of highest mean reward for the side to move,
  again with strict ``>``.
"""

from __future__ import annotations

from math import log, sqrt

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


def prune_by_reward(moves):
    """Keeps only the kernel moves sharing the maximal reward (index 4), in
    input order."""
    if not moves:
        raise ValueError("prune_by_reward requires a non-empty move list")
    best = max(m[4] for m in moves)
    return [m for m in moves if m[4] == best]


def _playout(state, turn, sim_depth, mm_depth, forced, capture_points, crown_points,
             king_weight, randrange):
    """The search's rollout from (state, turn): ``[white, red]`` rewards.

    At mm_depth >= 1 this is ``rollout``; below, each of up to ``sim_depth``
    steps plays ``moves[randrange(len(moves))]``, one call per step, and an
    index outside the move list is a ValueError.  [0, 0] from a position
    whose side to move has no legal move.
    """
    if mm_depth >= 1:
        return list(rollout(state, turn, sim_depth, mm_depth, forced,
                            capture_points, crown_points, king_weight))
    delta = [0, 0]
    for _ in range(sim_depth):
        moves = gen_moves(state, turn, forced, capture_points, crown_points)
        if not moves:
            break
        k = randrange(len(moves))
        if not 0 <= k < len(moves):
            raise ValueError("randrange result out of range")
        mv = moves[k]
        delta[turn] += mv[4]
        state = mv[5]
        turn = 1 - turn
    return delta


class _Tree:
    """The search tree as one arena of numbered nodes, laid out as in
    ``_ckernel.c``; node 0 is the root.

    Node i holds ``state[i]`` with ``turn[i]`` to move, was entered by
    ``move[i]`` (None at the root) from ``parent[i]`` (-1 at the root) and
    has ``visits[i]`` and a ``reward[i]`` of [white, red].  Its actions are
    generated once, when selection first stops at it, as the ``nact[i]``
    consecutive nodes from ``first[i]`` on (``nact[i]`` is -1 before); the
    first ``nkids[i]`` of them are in the tree.
    """

    def __init__(self, state, side, forced, capture_points, crown_points, pruning):
        self.rules = (forced, capture_points, crown_points)
        self.pruning = pruning
        self.state = [state]
        self.turn = [side]
        self.move = [None]
        self.parent = [-1]
        self.visits = [0]
        self.reward = [[0.0, 0.0]]
        self.first = [0]
        self.nact = [-1]
        self.nkids = [0]

    def actions(self, i):
        """The number of node i's actions: its legal moves, with pruning
        only those of the top reward; generated on the first call."""
        if self.nact[i] < 0:
            moves = gen_moves(self.state[i], self.turn[i], *self.rules)
            if self.pruning and moves:
                moves = prune_by_reward(moves)
            n = len(moves)
            self.first[i] = len(self.move)
            self.nact[i] = n
            self.state += [mv[5] for mv in moves]
            self.turn += [1 - self.turn[i]] * n
            self.move += moves
            self.parent += [i] * n
            self.visits += [0] * n
            self.reward += [[0.0, 0.0] for _ in moves]
            self.first += [0] * n
            self.nact += [-1] * n
            self.nkids += [0] * n
        return self.nact[i]

    def expand(self, i):
        """Adds node i's next untried action to the tree; returns its index."""
        if self.nkids[i] >= self.actions(i):
            raise ValueError("no untried move to expand")
        self.nkids[i] += 1
        return self.first[i] + self.nkids[i] - 1

    def uct_child(self, i, c):
        """The child of node i with the highest UCT score for its side to
        move (see the module docstring); every child must be visited."""
        side = self.turn[i]
        log_n = log(self.visits[i]) if self.visits[i] > 0 else 0.0
        best = -1
        best_score = -INF
        for k in range(self.first[i], self.first[i] + self.nkids[i]):
            visits = self.visits[k]
            if visits == 0:
                raise ValueError("UCT selection requires every child visited")
            score = self.reward[k][side] / visits + c * sqrt(log_n / visits)
            if score > best_score:
                best_score = score
                best = k
        return best

    def backup(self, i, delta, discount):
        """Adds ``discount ** dist * delta`` and one visit to node i and to
        each ancestor, ``dist`` steps above i."""
        dist = 0
        while i >= 0:
            factor = discount ** dist
            self.visits[i] += 1
            reward = self.reward[i]
            reward[0] += factor * delta[0]
            reward[1] += factor * delta[1]
            i = self.parent[i]
            dist += 1


def search(state, side, iterations, sim_depth, mm_depth, forced, capture_points,
           crown_points, king_weight, exploration, discount, pruning, randrange):
    """One MCTS turn for ``side``: ``(move, nodes)``, or None when ``side``
    has no legal move.

    Each iteration descends by UCT through fully expanded nodes, expands the
    next untried action of the node it stops at (unless that node has no
    legal move, which makes it terminal), plays ``_playout`` from the leaf
    and backs up its rewards plus the leaf's entry-move reward.  ``move`` is
    the root child of highest mean reward for ``side``, as ``gen_moves``
    returns it; ``nodes`` is the number of nodes the iterations expanded.
    ``randrange(n)`` draws the random moves of minimax-depth-0 rollouts.
    """
    _check_state(state)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0 <= exploration < INF:
        raise ValueError("exploration must be finite and >= 0")
    if not 0 < discount <= 1:
        raise ValueError("discount must be in (0, 1]")
    tree = _Tree(state, side, forced, capture_points, crown_points, pruning)
    if not tree.actions(0):
        return None
    nodes = 0
    for _ in range(iterations):
        i = 0
        while tree.nkids[i] and tree.nkids[i] == tree.nact[i]:
            i = tree.uct_child(i, exploration)
        if tree.actions(i):
            i = tree.expand(i)
            nodes += 1
        # the leaf is never the root, so it always has an entry move
        delta = _playout(tree.state[i], tree.turn[i], sim_depth, mm_depth, forced,
                         capture_points, crown_points, king_weight, randrange)
        delta[1 - tree.turn[i]] += tree.move[i][4]
        tree.backup(i, delta, discount)
    best = -1
    best_mean = -INF
    for k in range(tree.first[0], tree.first[0] + tree.nkids[0]):
        mean = tree.reward[k][side] / tree.visits[k]
        if mean > best_mean:
            best_mean = mean
            best = k
    return tree.move[best], nodes
