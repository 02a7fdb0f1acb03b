"""Independent reference implementations and net samplers used only to
check the package.

These are deliberately written against different data structures than the
library (position dicts instead of byte boards, relaxation DP instead of
best-first search, a heap over Counter markings instead of two FIFO lists
over numbered ones, name sets walked by depth-first search, all-pairs scans
and a union-find instead of bitsets and decisions made during a search) so a
shared bug is unlikely.
"""

import ast
import csv
import heapq
import json
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

from playmine.board import (
    Color,
    GameBoard,
    GamePiece,
    RewardConfig,
    apply_move,
    evaluate,
    legal_moves,
    winner,
)
from playmine.conformance import LOG, MODEL, SYNC, TAU, AlignmentMove
from playmine.episodes import StepRecord
from playmine.eventlog import EPISODE_COLUMNS, XES_NS
from playmine.explain import NoObservationError, Recommendation, WhyNotReport
from playmine.kernel import _pykernel
from playmine.petri import PetriNet, Transition

ALL_DIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def oracle_moves(board: GameBoard, color: Color, cfg: RewardConfig):
    """Brute-force rules enumerator over a {(x, y): piece} dict.

    Returns a list of (piece_id, from, to, sorted_captured, crowned, reward)
    tuples; chain moves appear once per distinct jump path.
    """
    pos = {(p.x, p.y): p for p in board.pieces()}
    forward = 1 if color is Color.WHITE else -1
    far_x = 7 if color is Color.WHITE else 0
    quiet = []
    captures = []

    for piece in sorted(board.pieces(color), key=lambda p: (p.x, p.y)):
        dirs = ALL_DIRS if piece.king else ((forward, 1), (forward, -1))
        origin = (piece.x, piece.y)

        def jump_paths(x, y, captured):
            paths = []
            for dx, dy in dirs:
                mid = (x + dx, y + dy)
                land = (x + 2 * dx, y + 2 * dy)
                if not (0 <= land[0] <= 7 and 0 <= land[1] <= 7):
                    continue
                victim = pos.get(mid)
                if victim is None or victim.color is color or mid in captured:
                    continue
                occupied = land in pos and land != origin and land not in captured
                if occupied:
                    continue
                new_captured = captured + (mid,)
                crowns = not piece.king and land[0] == far_x
                if crowns:
                    paths.append((land, new_captured, True))
                else:
                    deeper = jump_paths(land[0], land[1], new_captured)
                    if deeper:
                        paths.extend(deeper)
                    else:
                        paths.append((land, new_captured, False))
            return paths

        for land, captured, crowns in jump_paths(piece.x, piece.y, ()):
            ids = tuple(sorted(pos[c].id for c in captured))
            reward = cfg.capture_points * len(ids) + (cfg.crown_points if crowns else 0)
            captures.append((piece.id, origin, land, ids, crowns, reward))

        for dx, dy in dirs:
            land = (piece.x + dx, piece.y + dy)
            if not (0 <= land[0] <= 7 and 0 <= land[1] <= 7) or land in pos:
                continue
            crowns = not piece.king and land[0] == far_x
            reward = cfg.crown_points if crowns else 0
            quiet.append((piece.id, origin, land, (), crowns, reward))

    if cfg.forced_capture and captures:
        return captures
    return captures + quiet


def as_oracle_shape(move):
    """Projects a ConcreteMove onto the oracle comparison tuple."""
    return (move.piece_id, move.from_pos, move.to_pos,
            tuple(sorted(move.captured_ids)), move.crowned, move.reward)


def oracle_minimax(board: GameBoard, to_move: Color, agent: Color, depth: int,
                   cfg: RewardConfig, king_weight: float = 0.5) -> float:
    """Exhaustive recursion returning the game value only."""
    if depth == 0 or winner(board, to_move) is not None:
        return evaluate(board, agent, king_weight)
    moves = legal_moves(board, to_move, cfg)
    if not moves:
        return -math.inf if to_move is agent else math.inf
    values = [
        oracle_minimax(apply_move(board, m, cfg), to_move.opponent, agent,
                       depth - 1, cfg, king_weight)
        for m in moves
    ]
    return max(values) if to_move is agent else min(values)


def oracle_best_move(board: GameBoard, to_move: Color, agent: Color, depth: int,
                     cfg: RewardConfig, king_weight: float = 0.5):
    """The move full-width minimax picks: the first move, in the kernel's
    documented order (pieces by ascending square, each piece's captures
    before its steps), whose exhaustive ``oracle_minimax`` child value is
    the best.  Returns an ``oracle_moves`` tuple, or None with no move."""
    # oracle_moves lists every capture before every step; a stable sort by
    # origin keeps each piece's captures first
    moves = sorted(oracle_moves(board, to_move, cfg), key=lambda m: m[1])
    if depth < 1 or not moves:
        return None
    values = []
    for piece_id, origin, land, captured_ids, crowns, _reward in moves:
        pieces = [p for p in board.pieces()
                  if (p.x, p.y) != origin
                  and not (p.color is not to_move and p.id in captured_ids)]
        mover = board.piece_at(*origin)
        pieces.append(GamePiece(to_move, piece_id, land[0], land[1],
                                mover.king or crowns))
        child = GameBoard.from_pieces(pieces, board.pieces_per_side)
        values.append(oracle_minimax(child, to_move.opponent, agent, depth - 1,
                                     cfg, king_weight))
    best = max(values) if to_move is agent else min(values)
    return moves[values.index(best)]


def reference_tree(state, side, iterations, sim_depth, mm_depth, forced, capture_points,
                   crown_points, king_weight, exploration, discount, pruning, seed):
    """The pure twin's search with no rollout memo: plain UCT over
    ``_pykernel._Tree`` whose every rollout step calls ``_pykernel.minimax``
    (or, at minimax depth 0, draws from a ``_pykernel._Stream``).  It
    shares the pure twin's tree and minimax on purpose: what it checks is
    the rollout memo.  Takes ``kernel.search``'s arguments; returns the tree
    and the number of nodes the iterations expanded."""
    tree = _pykernel._Tree(state, side, (forced, capture_points, crown_points, king_weight,
                                         mm_depth), pruning)
    stream = _pykernel._Stream(seed)
    nodes = 0
    if not tree.actions(0):
        return tree, nodes
    for _ in range(iterations):
        leaf = 0
        while tree.nkids[leaf] and tree.nkids[leaf] == tree.nact[leaf]:
            leaf = tree.uct_child(leaf, exploration)
        if tree.actions(leaf):
            leaf = tree.expand(leaf)
            nodes += 1
        cur, turn = tree.state[leaf], tree.turn[leaf]
        delta = [0, 0]
        for _ in range(sim_depth):
            if mm_depth >= 1:
                move = _pykernel.minimax(cur, turn, turn, mm_depth, forced, capture_points,
                                         crown_points, king_weight)[1]
            else:
                moves = _pykernel.gen_moves(cur, turn, forced, capture_points, crown_points)
                move = moves[stream.below(len(moves))] if moves else None
            if move is None:
                break
            delta[turn] += move[4]
            cur, turn = move[5], 1 - turn
        delta[1 - tree.turn[leaf]] += tree.move[leaf][4]
        tree.backup(leaf, delta, discount)
    return tree, nodes


def reference_search(*args):
    """``kernel.search``'s ``(move, nodes)`` from ``reference_tree``: the
    first root child of highest mean reward for the side to move, or None
    when that side has no legal move."""
    tree, nodes = reference_tree(*args)
    children = range(tree.first[0], tree.first[0] + tree.nkids[0])
    if not children:
        return None
    side = tree.turn[0]
    best = max(children, key=lambda k: tree.reward[k][side] / tree.visits[k])
    return tree.move[best], nodes


def oracle_grid_distance(sources, targets):
    """On a free 8x8 grid the 4-neighbour BFS distance is plain Manhattan."""
    if not sources or not targets:
        return math.inf
    return min(abs(sx - tx) + abs(sy - ty)
               for sx, sy in sources for tx, ty in targets)


def marking_key(marking: Counter) -> tuple:
    """Canonical hashable form of a Counter marking."""
    return tuple(sorted((p, n) for p, n in marking.items() if n > 0))


def enabled_transitions(net: PetriNet, marking: Counter) -> list[Transition]:
    return [t for t in net.transitions if net.is_enabled(marking, t.name)]


def source_places(net: PetriNet) -> tuple[str, ...]:
    """Places no arc enters."""
    entered = {dst for _, dst in net.arcs}
    return tuple(p for p in net.places if p not in entered)


def sink_places(net: PetriNet) -> tuple[str, ...]:
    """Places no arc leaves."""
    left = {src for src, _ in net.arcs}
    return tuple(p for p in net.places if p not in left)


def has_unique_source_and_sink(net: PetriNet) -> bool:
    return len(source_places(net)) == 1 and len(sink_places(net)) == 1


def oracle_net_to_json(net: PetriNet) -> str:
    """The saved-net text as the standard encoder writes the payload, which
    ``petri.net_to_json`` wrote before it wrote the text itself."""
    payload = {
        "places": list(net.places),
        "transitions": [[t.name, t.label] for t in net.transitions],
        "arcs": [list(a) for a in net.arcs],
        "initial_marking": dict(net.initial_marking),
        "final_marking": dict(net.final_marking),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def oracle_token_cap(net: PetriNet, trace_len: int) -> int:
    """The most tokens an alignment's markings may hold: the initial and
    final tokens, plus the places, plus the trace length, plus 4."""
    return (sum(net.initial_marking.values()) + sum(net.final_marking.values())
            + len(net.places) + trace_len + 4)


def oracle_alignment_cost(trace, net, token_cap=None):
    """Bellman-style relaxation over the explicit product graph."""
    trace = tuple(trace)
    n = len(trace)
    if token_cap is None:
        token_cap = oracle_token_cap(net, n)

    start = (0, marking_key(net.initial_marking))
    markings = {start[1]: Counter(net.initial_marking)}
    states = {start}
    frontier = [start]
    edges = []
    while frontier:
        i, mkey = frontier.pop()
        marking = markings[mkey]
        succ = []
        for t in net.transitions:
            if not net.is_enabled(marking, t.name):
                continue
            nm = net.fire(marking, t.name)
            if sum(nm.values()) > token_cap:
                continue
            nkey = marking_key(nm)
            markings.setdefault(nkey, nm)
            succ.append(((i, nkey), 0 if t.silent else 1))
            if i < n and not t.silent and t.label == trace[i]:
                succ.append(((i + 1, nkey), 0))
        if i < n:
            succ.append(((i + 1, mkey), 1))
        for nstate, cost in succ:
            edges.append(((i, mkey), nstate, cost))
            if nstate not in states:
                states.add(nstate)
                frontier.append(nstate)

    inf = math.inf
    dist = {s: inf for s in states}
    dist[start] = 0
    changed = True
    while changed:
        changed = False
        for src, dst, cost in edges:
            if dist[src] + cost < dist[dst]:
                dist[dst] = dist[src] + cost
                changed = True
    return dist.get((n, marking_key(net.final_marking)), inf)


def oracle_alignment(trace, net, token_cap=None):
    """``(moves, raw_cost, states_explored)`` of uniform-cost search over
    Counter markings with a binary heap keyed ``(cost, push order)``, the
    search ``optimal_alignment`` ran before its two-level queue.  Push order
    is, per transition in ``net.transitions`` order, the synchronous move and
    then the model or silent move, with the log move last.  When the final
    marking is unreachable under the cap, moves is None and raw_cost inf."""
    trace = tuple(trace)
    n = len(trace)
    if token_cap is None:
        token_cap = oracle_token_cap(net, n)
    start = (marking_key(net.initial_marking), 0)
    goal = (marking_key(net.final_marking), n)
    markings = {start[0]: Counter(net.initial_marking)}
    dist = {start: 0}
    parent = {start: None}
    heap = [(0, 0, start)]
    tick = explored = 0
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > dist[state]:
            continue
        explored += 1
        if state == goal:
            moves = []
            while parent[state] is not None:
                state, move = parent[state]
                moves.append(move)
            return tuple(reversed(moves)), cost, explored
        mkey, i = state
        pushes = []
        for t in enabled_transitions(net, markings[mkey]):
            nm = net.fire(markings[mkey], t.name)
            if sum(nm.values()) > token_cap:
                continue
            nkey = marking_key(nm)
            markings.setdefault(nkey, nm)
            if t.silent:
                pushes.append(((nkey, i), cost, AlignmentMove(TAU, None, t.name)))
                continue
            if i < n and t.label == trace[i]:
                pushes.append(((nkey, i + 1), cost, AlignmentMove(SYNC, t.label, t.name)))
            pushes.append(((nkey, i), cost + 1, AlignmentMove(MODEL, t.label, t.name)))
        if i < n:
            pushes.append(((mkey, i + 1), cost + 1, AlignmentMove(LOG, trace[i], None)))
        for nstate, ncost, move in pushes:
            if ncost < dist.get(nstate, math.inf):
                dist[nstate] = ncost
                parent[nstate] = (state, move)
                tick += 1
                heapq.heappush(heap, (ncost, tick, nstate))
    return None, math.inf, explored


def sample_complete_trace(net: PetriNet, rng: random.Random,
                          max_steps: int = 200, attempts: int = 200) -> list[str]:
    """Visible labels of a random firing sequence that reaches the final
    marking; the random walk is retried until one does."""
    for _ in range(attempts):
        marking = Counter(net.initial_marking)
        labels: list[str] = []
        for _ in range(max_steps):
            if marking == net.final_marking:
                break
            enabled = enabled_transitions(net, marking)
            if not enabled:
                break
            t = enabled[rng.randrange(len(enabled))]
            if not t.silent:
                labels.append(t.label)
            marking = net.fire(marking, t.name)
        if marking == net.final_marking:
            return labels
    raise RuntimeError("could not sample a complete firing sequence")


def visible_language(net: PetriNet, max_len: int,
                     max_states: int = 200_000) -> set[tuple[str, ...]]:
    """All visible label sequences (length <= max_len) reaching the final
    marking.  Exploration is breadth-first with state deduplication."""
    start = (marking_key(net.initial_marking), ())
    final_key = marking_key(net.final_marking)
    seen = {start}
    queue = deque([(Counter(net.initial_marking), ())])
    out: set[tuple[str, ...]] = set()
    while queue:
        if len(seen) > max_states:
            raise RuntimeError("state budget exceeded while enumerating language")
        marking, seq = queue.popleft()
        if marking_key(marking) == final_key:
            out.add(seq)
        for t in enabled_transitions(net, marking):
            nseq = seq if t.silent else seq + (t.label,)
            if len(nseq) > max_len:
                continue
            nm = net.fire(marking, t.name)
            key = (marking_key(nm), nseq)
            if key not in seen:
                seen.add(key)
                queue.append((nm, nseq))
    return out


@dataclass
class DirectlyFollowsGraph:
    """The reference directly-follows graph: activity names and counted
    edges, start and end activities."""
    activities: set
    edges: Counter
    start_activities: Counter
    end_activities: Counter


def directly_follows(log) -> DirectlyFollowsGraph:
    """The directly-follows graph of ``log``; empty traces add nothing."""
    if not log.cases:
        raise ValueError("directly_follows requires a non-empty log")
    activities = set()
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for _, trace in log.traces():
        if not trace:
            continue
        activities.update(trace)
        starts[trace[0]] += 1
        ends[trace[-1]] += 1
        for a, b in zip(trace, trace[1:]):
            edges[(a, b)] += 1
    return DirectlyFollowsGraph(activities, edges, starts, ends)


def oracle_alpha_miner(log) -> PetriNet:
    """The alpha miner with maximality decided by scanning every stored
    (A, B) pair against every other one."""
    dfg = directly_follows(log)
    activities = sorted(dfg.activities)
    df = set(dfg.edges)

    def causal(a, b):
        return (a, b) in df and (b, a) not in df

    def unrelated(a, b):
        return (a, b) not in df and (b, a) not in df

    succs = {a: sorted(b for b in activities if causal(a, b)) for a in activities}
    preds = {b: sorted(a for a in activities if causal(a, b)) for b in activities}

    seeds = [(frozenset([a]), frozenset([b]))
             for a in activities for b in succs[a]]
    seen = set(seeds)
    queue = deque(seeds)
    pairs = []
    while queue:
        a_set, b_set = queue.popleft()
        pairs.append((a_set, b_set))
        ext_a = set.intersection(*(set(preds[b]) for b in b_set))
        for c in sorted(ext_a - a_set):
            if all(unrelated(c, a) for a in a_set) and unrelated(c, c):
                cand = (a_set | {c}, b_set)
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
        ext_b = set.intersection(*(set(succs[a]) for a in a_set))
        for c in sorted(ext_b - b_set):
            if all(unrelated(c, b) for b in b_set) and unrelated(c, c):
                cand = (a_set, b_set | {c})
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)

    maximal = []
    for a_set, b_set in pairs:
        dominated = any(a_set <= a2 and b_set <= b2 and (a_set, b_set) != (a2, b2)
                        for a2, b2 in pairs)
        if not dominated:
            maximal.append((a_set, b_set))
    maximal.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))

    places = ["source", "sink"]
    transitions = [Transition(f"t{i}", a) for i, a in enumerate(activities)]
    tname = {a: f"t{i}" for i, a in enumerate(activities)}
    arcs = []
    for a in sorted(dfg.start_activities):
        arcs.append(("source", tname[a]))
    for a in sorted(dfg.end_activities):
        arcs.append((tname[a], "sink"))
    for i, (a_set, b_set) in enumerate(maximal):
        p = f"p{i}"
        places.append(p)
        for a in sorted(a_set):
            arcs.append((tname[a], p))
        for b in sorted(b_set):
            arcs.append((p, tname[b]))
    return PetriNet(places, transitions, arcs,
                    Counter({"source": 1}), Counter({"sink": 1}))


def oracle_seq_cut(dfg):
    """Sequence cut by per-activity DFS reachability and a union-find over
    activities, merged to a fixpoint; ``("seq", groups)`` or None."""
    acts = sorted(dfg.activities)
    succ = {a: set() for a in acts}
    for a, b in dfg.edges:
        succ[a].add(b)
    reach = {}
    for a in acts:
        seen = set()
        stack = list(succ[a])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(succ[cur])
        reach[a] = seen

    parent = {a: a for a in acts}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i, a in enumerate(acts):
        for b in acts[i + 1:]:
            if (b in reach[a]) == (a in reach[b]):  # cyclic together or unordered
                union(a, b)
    changed = True
    while changed:
        changed = False
        classes = {}
        for a in acts:
            classes.setdefault(find(a), set()).add(a)
        keys = sorted(classes)
        for i, ka in enumerate(keys):
            for kb in keys[i + 1:]:
                fwd = any(b in reach[a] for a in classes[ka] for b in classes[kb])
                bwd = any(a in reach[b] for a in classes[ka] for b in classes[kb])
                if fwd == bwd:
                    union(ka, kb)
                    changed = True
    classes = {}
    for a in acts:
        classes.setdefault(find(a), set()).add(a)
    if len(classes) < 2:
        return None
    groups = [frozenset(members) for members in classes.values()]

    def before(g1, g2):
        return any(b in reach[a] for a in g1 for b in g2)

    predecessors = {g: sum(1 for other in groups if other != g and before(other, g))
                    for g in groups}
    groups.sort(key=lambda g: predecessors[g])
    return "seq", groups


def _components(nodes, neighbours) -> list[frozenset]:
    """Connected components by depth-first search from each unseen node in
    name order, sorted by their sorted members."""
    nodes = sorted(nodes)
    seen: set = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            for nxt in neighbours(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: sorted(c))
    return comps


def oracle_xor_cut(dfg):
    """Exclusive-choice cut: components of the undirected DFG;
    ``("xor", groups)`` or None."""
    adj: dict[str, set] = {a: set() for a in dfg.activities}
    for a, b in dfg.edges:
        adj[a].add(b)
        adj[b].add(a)
    comps = _components(dfg.activities, lambda n: adj[n])
    if len(comps) < 2:
        return None
    return "xor", comps


def oracle_par_cut(dfg):
    """Parallel cut: components of the pairs not directly following each
    other both ways, each with a start and an end activity; ``("par",
    groups)`` or None."""
    df = set(dfg.edges)
    acts = sorted(dfg.activities)
    adj: dict[str, set] = {a: set() for a in acts}
    for i, a in enumerate(acts):
        for b in acts[i + 1:]:
            if not ((a, b) in df and (b, a) in df):
                adj[a].add(b)
                adj[b].add(a)
    comps = _components(acts, lambda n: adj[n])
    if len(comps) < 2:
        return None
    starts = set(dfg.start_activities)
    ends = set(dfg.end_activities)
    for comp in comps:
        if not (comp & starts) or not (comp & ends):
            return None
    return "par", comps


def oracle_loop_cut(dfg):
    """Loop cut by scanning every edge for each component of the non-start,
    non-end activities; ``("loop", [body, *redos])`` or None."""
    starts = set(dfg.start_activities)
    ends = set(dfg.end_activities)
    core = starts | ends
    rest = dfg.activities - core
    if not rest:
        return None
    adj: dict[str, set] = {a: set() for a in rest}
    for a, b in dfg.edges:
        if a in rest and b in rest:
            adj[a].add(b)
            adj[b].add(a)
    comps = _components(rest, lambda n: adj[n])
    body = set(core)
    redos = []
    for comp in comps:
        valid = True
        for a, b in dfg.edges:
            if b in comp and a not in comp and a not in ends:
                valid = False
                break
            if a in comp and b not in comp and b not in starts:
                valid = False
                break
        if valid:
            redos.append(comp)
        else:
            body |= comp
    if not redos:
        return None
    return "loop", [frozenset(body)] + sorted(redos, key=lambda c: sorted(c))


def _parse_movement_cell(cell: str):
    """A movement cell of an episode table: a direction tuple, an int or
    +-inf."""
    cell = cell.strip()
    if cell in ("inf", "-inf"):
        return math.inf if cell == "inf" else -math.inf
    value = ast.literal_eval(cell)
    return value if isinstance(value, tuple) else int(value)


def import_episode_table(path) -> list[StepRecord]:
    """The episode-table reference reader: the records of a table that
    ``eventlog.export_episode_table`` wrote.  A wrong header, or a row
    without six fields (naming its file and line), is a ValueError."""
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header
        if tuple(header) != EPISODE_COLUMNS:
            raise ValueError(f"unexpected episode table header in {path}: {header}")
        for row in reader:
            if len(row) != len(EPISODE_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: expected "
                                 f"{len(EPISODE_COLUMNS)} fields, got {len(row)}")
            records.append(StepRecord(
                last_turn_enemy_piece_id=int(row[0]),
                last_turn_enemy_movement=_parse_movement_cell(row[1]),
                piece_id=int(row[2]),
                move=_parse_movement_cell(row[3]),
                captured=tuple(ast.literal_eval(row[4])),
                reward=int(row[5]),
            ))
    return records


def oracle_export_log_xes(log, path) -> None:
    """The XES reference writer: builds the element tree of ``log`` and lets
    ElementTree indent and serialize it, the bytes ``export_log(..., "xes")``
    must match."""
    root = ET.Element("log", {"xes.version": "1.0", "xmlns": XES_NS})
    for cid, labels in log.traces():
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {"key": "concept:name", "value": str(cid)})
        for label in labels:
            ev_el = ET.SubElement(trace_el, "event")
            ET.SubElement(ev_el, "string", {"key": "concept:name", "value": label})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def _oracle_check_lookahead(lookahead: int) -> None:
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")


def oracle_future_distance(view, layer: int, action: tuple, lookahead: int):
    """Earliest layer offset (<= lookahead) holding a positive-reward entry
    whose context equals ``action``, and that entry; (inf, None) when none
    chains.  Scans each later layer entry by entry."""
    for offset in range(1, lookahead + 1):
        number = layer + offset
        if number > len(view):
            break
        for entry in view.layer(number):
            if entry.reward > 0 and entry.context == action:
                return offset, entry
    return math.inf, None


def oracle_recommend(view, layer: int, context: tuple, lookahead: int) -> Recommendation:
    """The reference ``explain.recommend``: scans the whole layer for the
    context and ranks its entries by reward, then chain distance, then the
    entry's own position in the layer, so a tie goes to the tied entry seen
    first."""
    _oracle_check_lookahead(lookahead)
    matches = [e for e in view.layer(layer) if e.context == context]
    if not matches:
        raise NoObservationError(
            f"no transition with context {context} observed at layer {layer}")
    futures = {e.action: oracle_future_distance(view, layer, e.action, lookahead)
               for e in matches}
    ranked_entries = [e for _, _, _, e in sorted(
        (-e.reward, futures[e.action][0], i, e) for i, e in enumerate(matches))]
    best = ranked_entries[0]
    ranked = tuple((e.action, e.reward) for e in ranked_entries)
    supporting = futures[best.action][1]
    if best.reward > 0 or supporting is None:
        return Recommendation(context, best.action, best.reward,
                              "immediate-reward", None, ranked)
    return Recommendation(context, best.action, best.reward,
                          "future-reward", supporting, ranked)


def oracle_why_not(view, layer: int, context: tuple, alternative: tuple,
                   lookahead: int) -> WhyNotReport:
    """The reference ``explain.why_not``: scans the layer for the first
    entry of the alternative, then ranks the context afresh."""
    _oracle_check_lookahead(lookahead)
    matches = [e for e in view.layer(layer) if e.context == context]
    alt = next((e for e in matches if e.action == alternative), None)
    if alt is None:
        raise NoObservationError(
            f"alternative {alternative} not observed at layer {layer} "
            f"with context {context}")
    rec = oracle_recommend(view, layer, context, lookahead)
    _, future = oracle_future_distance(view, layer, alternative, lookahead)
    return WhyNotReport(context, rec.action, rec.reward, alternative, alt.reward,
                        rec.reward - alt.reward, future)
