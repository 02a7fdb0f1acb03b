"""Pure-Python game kernel: the hot path behind board ops and search.

A board state is a 64-byte string indexed by ``x * 8 + y``.  Cell encoding:
0 is empty, otherwise bits 0-4 hold the piece id, bit 5 the king flag and
bit 6 the side (0 white, 1 red).  White men advance toward x = 7 and crown
there; red men advance toward x = 0.  Dark squares have even x + y.

The compiled backend (``_ckernel.c``, built on first import by
``kernel/__init__.py``) has twins of the four ops the search spends its
time in, ``gen_moves``, ``minimax``, ``rollout`` and ``search``, and of
``new_memo``, and they must stay behaviourally identical: move enumeration
order, tie-breaking, return types and the ValueErrors for bad arguments are
part of the contract.  Each of the four checks its arguments on entry, in this order:
a state of 64 bytes, sides (``color``, ``to_move``, ``agent``, ``side``) in
{0, 1}, points in ``0..MAX_POINTS``, a minimax depth of at most
``MAX_DEPTH``, then its own limits.  Those arguments, and the iterations,
simulation depth and seed that ``search`` checks before all others
(``rollout`` its simulation depth), must be ints (``True`` is 1), else the
op raises C parsing's TypeError; a seed of any size is taken mod 2**64.
``side_has_moves``, ``piece_counts``, ``evaluate`` and ``winner`` have no
twin: every backend uses these, and ``side_has_moves`` asks ``gen_moves``,
so each twin has one copy of the rules.  This module is the fallback when no
C compiler is available and the reference the parity tests compare against.

``search`` is the whole MCTS turn: UCT selection, one expansion, a rollout
and the discounted backup, repeated ``iterations`` times.  This docstring is
the one statement of the contract both twins keep; ``_ckernel.c``,
``search.py`` and the README point here.  Both twins make each of its
choices in one place:

* ties go to the first move in ``gen_moves`` order: ``minimax`` (one
  alpha-beta loop for both sides) replaces its best move only on a strict
  improvement, and ``_Tree.uct_child`` compares with a strict ``>``;
* the same float operations in the same order, so the twins choose
  bit-identical moves: UCT score ``reward / visits + c * sqrt(log_n /
  visits)`` with ``log_n = log(parent visits)`` (0.0 at 0 visits), and
  backup ``reward += discount ** dist * delta`` on both sides, where
  ``delta`` is the rollout's rewards plus the leaf's entry-move reward on
  the side that played it;
* one rollout loop, ``_playout``: each step is the side to move's
  depth-``mm_depth`` minimax move, through the memo, at mm_depth >= 1, and
  at depth 0 a draw from one splitmix64 stream per search (``_Stream``,
  seeded by ``search``'s ``seed`` and read on from rollout to rollout, so
  the compiled twin calls no Python code); it stops after ``sim_depth``
  steps or at a side with no legal move.  ``rollout`` runs the same loop
  with a memo of its own and no stream;
* final pick: ``uct_child`` of the root at exploration 0.0, the root child
  of highest mean reward for the side to move;
* one rules record per call, the tuple ``(forced, capture_points,
  crown_points, king_weight, mm_depth)`` (``Rules`` in C): ``search`` and
  ``rollout`` build it once, and the tree's move generation, ``_playout``
  and ``Memo.start`` all read that one record;
* where a piece goes, ``_piece_moves`` (``MAN_DIR`` and ``FAR_ROW`` in C):
  its directions and the row where it crowns, which its capture chains and
  its steps both read.

A rollout step at minimax depth >= 1 is a pure function of (state, side to
move): the rules, points, king weight and depth are fixed, and ties go to
the first move in order.  So rollout steps are looked up in a memo, a
transposition table (Greenblatt et al., 1967) keyed on the 64-byte state
and the side and compared by the full key: a dict here (``Memo``), an
open-addressed table in C.  Only a step the memo has not seen runs minimax,
and a hit returns what minimax returned, so every result is exact.  So is a
whole rollout at minimax depth >= 1, a pure function of its first step and
its simulation depth: the memo keeps, for the first step of each rollout
whose every step it stores, that rollout's ``[white, red]`` rewards,
simulation depth and lookups (the final one that finds no move included),
and a later rollout from that step at the same depth returns the rewards
and adds the lookups to both ``steps`` and ``hits``, as its walk would.  A
caller may pass one ``new_memo()`` handle to many searches in one process
(a batch passes one to every turn of a chunk of games); ``rollout``, and
``search`` without a handle, make a memo for the call.  A handle is bound
to the rules, points, king weight and minimax depth of its first search
and refuses any other with a ValueError; each twin accepts only its own
handles, else TypeError.  A search that
finds its memo more than half full (over ``MEMO_MAX // 2`` entries) empties
it first, with the rollouts and searches it keeps, and a memo stops
inserting at ``MEMO_MAX`` entries, so both twins insert, hit and clear at
the same steps.  Depth-0 rollouts never touch the memo.

At minimax depth >= 1 a whole search is a pure function of its root and
settings too, since the seed reaches only depth-0 rollouts.  So a handle
keeps each search made through it at that depth that returns a move: under
the key ``(state, side, iterations, sim_depth, exploration, discount,
pruning)``, the settings the handle is not bound to, it keeps ``(move,
nodes)`` and the memo lookups the search made.  A later search with that
key through the handle, once the handle is readied (and perhaps emptied),
returns the kept ``(move, nodes)`` and adds the lookups to both ``steps``
and ``hits``, inserting nothing.  That is what the search would count:
entries go only all at once, with the searches, so its every lookup would
hit.  A search that meets a full memo, whose later lookups would miss
again, leaves the memo more than half full, so the next search's start
empties it before any lookup.  A search that raises is not kept, and a
handle keeps at most ``MEMO_MAX`` searches, then no more.  ``search``
without a handle keeps nothing.
"""

from __future__ import annotations

from math import log, sqrt
from operator import index

WHITE = 0
RED = 1

KING_FLAG = 0x20
RED_FLAG = 0x40
ID_MASK = 0x1F

INF = float("inf")

# The largest capture_points or crown_points the ops accept.  Rewards come
# only from captures, each removing a piece, and crowns, each turning a man
# into a king for good.  A 64-byte state holds at most 64 pieces, so any line
# of play (a search's entry move and its playout included) earns at most 63
# captures and 64 crowns: under 2**38 points.  So no reward sum overflows the
# compiled twin's 64-bit C long, and each is exact as the double that the
# search's backup turns it into.
MAX_POINTS = 2**31 - 1

# The largest minimax depth (``mm_depth`` in rollout and search).  Minimax
# recurses once per ply and kings can shuffle forever, so depth 100,000 blew
# the C stack and Python's recursion limit.  64 frames fit both, and no depth
# near 64 finishes: on a 2-core x86-64 host the compiled minimax of the
# 3-a-side opening takes 16 s at depth 20, about 5 times more per 2 plies.
MAX_DEPTH = 64

# The most entries a rollout memo holds (``_ckernel.c``'s MEMO_MAX, with the
# same meaning): a full memo answers lookups but stops inserting, so both
# twins insert and hit at the same steps.  In C that is 6.0 MB of entries
# (184 bytes each on x86-64) and 256 KB of slots.
MEMO_MAX = 32768

MEMO_RULES_MSG = ("memo holds rollout steps of other rules: forced capture, points, "
                  "king weight or minimax depth differ")

# Diagonal directions; _piece_moves says which of them a piece moves in.
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


def _check_args(state, sides, capture_points, crown_points, depth=0):
    """The checks the compiled twin's ops make, in its order and words."""
    _check_state(state)
    for side in sides:
        if index(side) not in (0, 1):
            raise ValueError("side must be 0 (white) or 1 (red)")
    for points in (capture_points, crown_points):
        if not 0 <= index(points) <= MAX_POINTS:
            raise ValueError(f"capture_points and crown_points must be in 0..{MAX_POINTS}")
    if index(depth) > MAX_DEPTH:
        raise ValueError(f"minimax depth must be <= {MAX_DEPTH}")


def _piece_moves(color, king):
    """Where a piece goes: its directions, and the row x where it crowns
    (-1 for a king), which both its chains and its steps read."""
    if king:
        return DIRS, -1
    return (DIRS[:2], 7) if color == WHITE else (DIRS[2:], 0)


def _emit(out, work, frm, to, piece, captured, crowned, points):
    """Appends the move of ``piece`` from ``frm`` to ``to`` on ``work`` (the
    board without the mover and its captures), ``crowned`` or not, with its
    reward at ``points`` (capture, crown): the one writer of every chain and
    step."""
    new = bytearray(work)
    new[to] = (piece | KING_FLAG) if crowned else piece
    out.append((frm, to, tuple(captured), crowned,
                points[0] * len(captured) + (points[1] if crowned else 0), bytes(new)))


def _extend_chains(work, frm, cx, cy, piece, color, crown_x, dirs, captured, points, out):
    """DFS over jump continuations; emits every chain that cannot be extended.
    A landing on row ``crown_x`` crowns and ends the chain."""
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
        if lx == crown_x:
            _emit(out, work, frm, land, piece, captured, True, points)
        elif not _extend_chains(work, frm, lx, ly, piece, color, crown_x, dirs, captured,
                                points, out):
            _emit(out, work, frm, land, piece, captured, False, points)
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
    _check_args(state, (color,), capture_points, crown_points)
    points = (capture_points, crown_points)
    out = []
    have_capture = False
    for idx in range(64):
        piece = state[idx]
        if piece == 0 or ((piece >> 6) & 1) != color:
            continue
        x = idx >> 3
        y = idx & 7
        dirs, crown_x = _piece_moves(color, piece & KING_FLAG)
        work = bytearray(state)
        work[idx] = 0
        if _extend_chains(work, idx, x, y, piece, color, crown_x, dirs, [], points, out):
            have_capture = True
        for dx, dy in dirs:
            nx = x + dx
            ny = y + dy
            if 0 <= nx <= 7 and 0 <= ny <= 7 and state[(nx << 3) | ny] == 0:
                _emit(out, work, idx, (nx << 3) | ny, piece, (), nx == crown_x, points)
    if forced and have_capture:
        return [m for m in out if m[2]]
    return out


def side_has_moves(state, color):
    """True iff ``color`` has a legal move, as ``gen_moves`` decides: forced
    capture and the points change which moves it lists and their rewards,
    never whether it lists one."""
    return bool(gen_moves(state, color, False, 0, 0))


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
    _check_args(state, (to_move, agent), capture_points, crown_points, depth)
    if depth < 0:  # the recursion stops only at depth 0
        raise ValueError("minimax requires depth >= 0")

    def search(state, to_move, depth, alpha, beta):
        if depth == 0:
            return evaluate(state, agent, king_weight), None
        moves = gen_moves(state, to_move, forced, capture_points, crown_points)
        if not moves:
            return evaluate(state, agent, king_weight), None
        maximizing = to_move == agent
        best_score = -INF if maximizing else INF
        best = None
        for mv in moves:
            score = search(mv[5], 1 - to_move, depth - 1, alpha, beta)[0]
            if score > best_score if maximizing else score < best_score:
                best_score = score
                best = mv
                if maximizing and score > alpha:
                    alpha = score
                elif not maximizing and score < beta:
                    beta = score
                if alpha >= beta:
                    break
        return best_score, best

    return search(state, to_move, depth, -INF, INF)


class Memo:
    """A rollout memo: ``table`` maps (state, turn) to None (no legal move)
    or (reward, next_state), ``results`` maps the key of a rollout's first
    step to that whole rollout, ``(sim_depth, white, red, lookups)``, and
    ``searches`` maps a kept search's key, ``(state, side, iterations,
    sim_depth, exploration, discount, pruning)``, to ``((move, nodes),
    lookups)``.  ``rules`` is None until a search binds it; ``steps``
    counts the rollout steps looked up, ``hits`` those found and
    ``clears`` the times the memo was emptied.  ``_ckernel``'s Memo is its
    twin, with the results in its entries and the searches in a dict of
    the handle's."""

    __slots__ = ("table", "results", "searches", "rules", "steps", "hits", "clears")

    def __init__(self):
        self.table = {}
        self.results = {}
        self.searches = {}
        self.rules = None
        self.steps = self.hits = self.clears = 0

    def counts(self):
        """``(steps, hits, entries, clears)``."""
        return self.steps, self.hits, len(self.table), self.clears

    def start(self, rules):
        """Readies the memo for a search under ``rules`` (forced capture,
        capture points, crown points, king weight, minimax depth): the first
        search binds it to them, a later one with any other value is a
        ValueError.  Then a memo more than half full is emptied, with its
        results and searches, so every search has room for at least half of
        ``MEMO_MAX`` new entries."""
        if self.rules is None:
            self.rules = rules
        elif any(a != b for a, b in zip(self.rules, rules)):  # a NaN never matches
            raise ValueError(MEMO_RULES_MSG)
        if len(self.table) > MEMO_MAX // 2:
            self.table.clear()
            self.results.clear()
            self.searches.clear()
            self.clears += 1


def new_memo():
    """An empty rollout memo for ``search``'s ``memo`` argument."""
    return Memo()


def rollout(state, to_move, sim_depth, mm_depth, forced, capture_points, crown_points, king_weight):
    """Minimax-guided playout; returns accumulated (white, red) rewards.

    Each step the side to move plays its own depth-``mm_depth`` minimax best
    move.  Stops after ``sim_depth`` steps or when minimax yields no move,
    which is when the side to move has lost (see ``winner``).  Requires
    mm_depth >= 1 (depth 0 rollouts are random and handled by the search
    layer).  The steps go through a memo of the call's own (see the module
    docstring).
    """
    index(sim_depth)
    _check_args(state, (to_move,), capture_points, crown_points, mm_depth)
    if mm_depth < 1:
        raise ValueError("rollout requires mm_depth >= 1")
    rules = (bool(forced), capture_points, crown_points, king_weight, mm_depth)
    return tuple(_playout(state, to_move, sim_depth, rules, None, Memo()))


def prune_by_reward(moves):
    """Keeps only the kernel moves sharing the maximal reward (index 4), in
    input order."""
    if not moves:
        raise ValueError("prune_by_reward requires a non-empty move list")
    best = max(m[4] for m in moves)
    return [m for m in moves if m[4] == best]


class _Stream:
    """The splitmix64 stream (Steele, Lea & Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014) that draws a search's
    random moves; the compiled twin's ``splitmix64`` is the same function.

    ``seed`` may be any int and is taken mod 2**64; anything else is the
    TypeError of ``operator.index``.
    """

    MASK = 2**64 - 1

    def __init__(self, seed):
        self.state = index(seed) & self.MASK

    def below(self, n):
        """The stream's next value mod ``n``: a draw from ``range(n)``,
        biased by at most n / 2**64."""
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return (z ^ (z >> 31)) % n


def _playout(state, turn, sim_depth, rules, stream, memo):
    """The rollout from (state, turn) under ``rules``, the call's rules
    record: ``[white, red]`` rewards.

    Each of up to ``sim_depth`` steps plays, for the side to move, its
    depth-``mm_depth`` minimax move looked up in and added to ``memo`` (a
    ``Memo``; a full one inserts nothing) at mm_depth >= 1, else
    ``moves[stream.below(len(moves))]``.  It stops at a side with no legal
    move.  ``stream`` is read only at depth 0 and ``memo`` only at depth >= 1.

    A walk whose every step is stored, so that each would hit again, is
    kept in ``memo.results`` under its first key; a later rollout from that
    key at the same ``sim_depth`` returns its rewards and counts its lookups,
    each a hit, as its walk would.
    """
    forced, capture_points, crown_points, king_weight, mm_depth = rules
    first = (state, turn)
    result = memo.results.get(first) if mm_depth >= 1 else None
    if result is not None and result[0] == sim_depth:
        memo.steps += result[3]
        memo.hits += result[3]
        return [result[1], result[2]]
    table = memo.table
    lookups = memo.steps
    whole = True  # every step so far is stored
    delta = [0, 0]
    for _ in range(sim_depth):
        if mm_depth < 1:
            moves = gen_moves(state, turn, forced, capture_points, crown_points)
            step = moves[stream.below(len(moves))][4:] if moves else None
        else:
            key = (state, turn)
            memo.steps += 1
            if key in table:
                memo.hits += 1
                step = table[key]
            else:
                _, mv = minimax(state, turn, turn, mm_depth, forced,
                                capture_points, crown_points, king_weight)
                step = None if mv is None else mv[4:]
                if len(table) < MEMO_MAX:
                    table[key] = step
                else:
                    whole = False
        if step is None:  # the side to move has no legal move
            break
        delta[turn] += step[0]
        state = step[1]
        turn = 1 - turn
    if whole and memo.steps > lookups:
        memo.results[first] = (sim_depth, delta[0], delta[1], memo.steps - lookups)
    return delta


class _Tree:
    """The search tree as one arena of numbered nodes, laid out as in
    ``_ckernel.c``; node 0 is the root.

    Node i holds ``state[i]`` with ``turn[i]`` to move, was entered by
    ``move[i]`` (None at the root) from ``parent[i]`` (-1 at the root) and
    has ``visits[i]`` and a ``reward[i]`` of [white, red].  Its actions are
    generated once, when selection first stops at it, as the ``nact[i]``
    consecutive nodes from ``first[i]`` on (``nact[i]`` is -1 before); the
    first ``nkids[i]`` of them are in the tree.  ``gen_rules`` holds the
    fields of the call's rules record that move generation reads.
    """

    def __init__(self, state, side, rules, pruning):
        self.gen_rules = rules[:3]
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
            moves = gen_moves(self.state[i], self.turn[i], *self.gen_rules)
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
        move (see the module docstring); every child must be visited.  At
        ``c`` 0.0 the score is the mean reward, which is the final pick."""
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
           crown_points, king_weight, exploration, discount, pruning, seed, memo=None):
    """One MCTS turn for ``side``: ``(move, nodes)``, or None when ``side``
    has no legal move.

    Each iteration descends by UCT through fully expanded nodes, expands the
    next untried action of the node it stops at (unless that node has no
    legal move, which makes it terminal), plays ``_playout`` from the leaf
    and backs up its rewards plus the leaf's entry-move reward.  ``move`` is
    the root child of highest mean reward for ``side``, as ``gen_moves``
    returns it; ``nodes`` is the number of nodes the iterations expanded.
    The random moves of minimax-depth-0 rollouts come from one ``_Stream``
    seeded with ``seed``, read on from rollout to rollout.  The rollout
    steps of all iterations go through ``memo``, a ``new_memo()`` handle the
    caller may pass to many searches under the same rules, or with None
    through a memo of the call's own.  At minimax depth >= 1 a search
    through a handle is kept there, and a later one with the same root and
    settings replays it (see the module docstring).
    """
    index(iterations), index(sim_depth)
    stream = _Stream(seed)
    _check_args(state, (side,), capture_points, crown_points, mm_depth)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0 <= exploration < INF:
        raise ValueError("exploration must be finite and >= 0")
    if not 0 < discount <= 1:
        raise ValueError("discount must be in (0, 1]")
    key = None
    if memo is None:
        memo = Memo()
    elif type(memo) is not Memo:
        raise TypeError("memo must be None or this kernel's new_memo()")
    elif mm_depth >= 1:
        key = (bytes(state), side, iterations, sim_depth, exploration, discount, bool(pruning))
    rules = (bool(forced), capture_points, crown_points, king_weight, mm_depth)
    memo.start(rules)
    kept = memo.searches.get(key)
    if kept is not None:
        memo.steps += kept[1]
        memo.hits += kept[1]
        return kept[0]
    lookups = memo.steps
    tree = _Tree(state, side, rules, pruning)
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
        delta = _playout(tree.state[i], tree.turn[i], sim_depth, rules, stream, memo)
        delta[1 - tree.turn[i]] += tree.move[i][4]
        tree.backup(i, delta, discount)
    found = tree.move[tree.uct_child(0, 0.0)], nodes
    if key is not None and len(memo.searches) < MEMO_MAX:
        memo.searches[key] = (found, memo.steps - lookups)
    return found
