"""Process discovery: directly-follows graph, alpha miner, inductive miner.

The alpha miner builds the classic footprint construction (causal pairs,
maximal independent pair sets, one place per maximal pair); it can and does
produce non-fitting nets on looping logs.  The inductive miner is the basic
noise-free variant: recursive cut detection in the order exclusive-choice,
sequence, parallel, loop, with a flower-model fallback, which guarantees the
resulting net replays every trace of its input log.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .eventlog import EventLog
from .petri import PetriNet, Transition

Trace = tuple[str, ...]


@dataclass
class DirectlyFollowsGraph:
    activities: set
    edges: Counter
    start_activities: Counter
    end_activities: Counter


def directly_follows(log: EventLog) -> DirectlyFollowsGraph:
    if not log.cases:
        raise ValueError("directly_follows requires a non-empty log")
    traces = [labels for _, labels in log.traces()]
    return _dfg_of(traces)


def _dfg_of(traces: Sequence[Trace]) -> DirectlyFollowsGraph:
    activities = set()
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for trace in traces:
        if not trace:
            continue
        activities.update(trace)
        starts[trace[0]] += 1
        ends[trace[-1]] += 1
        for a, b in zip(trace, trace[1:]):
            edges[(a, b)] += 1
    return DirectlyFollowsGraph(activities, edges, starts, ends)


# ---------------------------------------------------------------------------
# alpha miner


def alpha_miner(log: EventLog) -> PetriNet:
    if not log.cases:
        raise ValueError("alpha_miner requires a non-empty log")
    traces = [labels for _, labels in log.traces()]
    dfg = _dfg_of(traces)
    activities = sorted(dfg.activities)
    df = set(dfg.edges)

    # related[a]: every b with a -> b or b -> a; a is self-looped iff a is
    # related to itself, and a, b are unrelated (a # b) iff b not in related[a]
    related: dict = {a: set() for a in activities}
    succs: dict = {a: set() for a in activities}
    preds: dict = {a: set() for a in activities}
    for a, b in df:
        related[a].add(b)
        related[b].add(a)
        if (b, a) not in df:  # causal a -> b
            succs[a].add(b)
            preds[b].add(a)
    looped = {a for a in activities if a in related[a]}

    # Grow (A, B) pairs from causal seeds.  Seeds may hold a self-looped
    # activity; an added one may not.  So the stored pairs are exactly those
    # whose cross pairs are causal, whose members are pairwise unrelated,
    # and whose A and B each hold at most one self-looped activity; every
    # such pair is reachable by adding one activity at a time.  That set is
    # closed under taking subsets, so a pair is maximal iff no single
    # activity c extends it within the set: c passes the cross-causal and
    # pairwise tests, and A + {c} (or B + {c}) still holds at most one
    # self-looped activity.
    def growth(grown, candidates):
        """Whether some activity extends ``grown`` within the stored set, and
        the grown sets the BFS stores (those adding no self-looped one)."""
        has_loop = not looped.isdisjoint(grown)
        valid = [c for c in candidates - grown if related[c].isdisjoint(grown)
                 and not (has_loop and c in looped)]
        return bool(valid), [grown | {c} for c in valid if c not in looped]

    seeds = [(frozenset([a]), frozenset([b]))
             for a in activities for b in sorted(succs[a])]
    seen = set(seeds)
    queue = deque(seeds)
    maximal = []
    while queue:
        a_set, b_set = queue.popleft()
        a_grows, a_sets = growth(a_set, set.intersection(*(preds[b] for b in b_set)))
        b_grows, b_sets = growth(b_set, set.intersection(*(succs[a] for a in a_set)))
        for cand in [(a2, b_set) for a2 in a_sets] + [(a_set, b2) for b2 in b_sets]:
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)
        if not (a_grows or b_grows):
            maximal.append((a_set, b_set))
    maximal.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))

    places = ["source", "sink"]
    transitions = [Transition(f"t{i}", a) for i, a in enumerate(activities)]
    tname = {a: f"t{i}" for i, a in enumerate(activities)}
    arcs: list[tuple[str, str]] = []
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


# ---------------------------------------------------------------------------
# inductive miner


@dataclass(frozen=True)
class ProcessTree:
    kind: str  # "seq" | "xor" | "par" | "loop" | "act" | "tau"
    label: Optional[str] = None
    children: tuple = ()

    def __post_init__(self):
        if self.kind == "loop" and len(self.children) < 2:
            raise ValueError("loop needs a body and at least one redo child")
        if self.kind in ("act", "tau") and self.children:
            raise ValueError("leaves cannot have children")
        if self.kind == "act" and self.label is None:
            raise ValueError("activity leaf needs a label")

    def __repr__(self):
        if self.kind == "act":
            return f"act({self.label!r})"
        if self.kind == "tau":
            return "tau"
        inner = ", ".join(repr(c) for c in self.children)
        return f"{self.kind}({inner})"


def seq(*children) -> ProcessTree:
    return ProcessTree("seq", children=tuple(children))


def xor(*children) -> ProcessTree:
    return ProcessTree("xor", children=tuple(children))


def par(*children) -> ProcessTree:
    return ProcessTree("par", children=tuple(children))


def loop(*children) -> ProcessTree:
    return ProcessTree("loop", children=tuple(children))


def act(label: str) -> ProcessTree:
    return ProcessTree("act", label=label)


def tau() -> ProcessTree:
    return ProcessTree("tau")


def inductive_miner(log: EventLog) -> ProcessTree:
    if not log.cases:
        raise ValueError("inductive_miner requires a non-empty log")
    traces = [labels for _, labels in log.traces()]
    return _im(traces)


def _im(traces: list[Trace]) -> ProcessTree:
    if not traces or all(len(t) == 0 for t in traces):
        return tau()
    if any(len(t) == 0 for t in traces):
        return xor(tau(), _im([t for t in traces if t]))

    alphabet = sorted({a for t in traces for a in t})
    if len(alphabet) == 1:
        a = alphabet[0]
        if all(len(t) == 1 for t in traces):
            return act(a)
        return loop(act(a), tau())  # a repeated one or more times

    dfg = _dfg_of(traces)
    cut = _xor_cut(dfg) or _seq_cut(dfg) or _par_cut(dfg) or _loop_cut(dfg)
    if cut is None:
        return loop(tau(), *(act(a) for a in alphabet))  # flower fallback

    kind, groups = cut
    where = {a: i for i, g in enumerate(groups) for a in g}
    split = {"xor": _split_xor, "loop": _split_loop}.get(kind, _project)
    return ProcessTree(kind, children=tuple(_im(sub) for sub in split(traces, where, len(groups))))


def _components(nodes: Iterable[str], neighbours) -> list[frozenset]:
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


def _xor_cut(dfg: DirectlyFollowsGraph):
    adj: dict[str, set] = {a: set() for a in dfg.activities}
    for a, b in dfg.edges:
        adj[a].add(b)
        adj[b].add(a)
    comps = _components(dfg.activities, lambda n: adj[n])
    if len(comps) < 2:
        return None
    return "xor", comps


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(adj: list) -> list:
    """Transitive closure of bitset adjacency rows (Warshall)."""
    reach = list(adj)
    for k in range(len(reach)):
        bit, rk = 1 << k, reach[k]
        for i, ri in enumerate(reach):
            if ri & bit:
                reach[i] = ri | rk
    return reach


def _seq_cut(dfg: DirectlyFollowsGraph):
    """Groups of activities that are mutually reachable or mutually
    unreachable, joined transitively, in the order the DFG reaches them.

    Sets of activities are int bitsets over the sorted activities.  Two
    activities in different groups are reachable one way only, and every
    cross pair of two groups is reachable the same way, so the groups are
    totally ordered: each has a distinct number of predecessor groups.
    """
    acts = sorted(dfg.activities)
    index = {a: k for k, a in enumerate(acts)}
    succ = [0] * len(acts)
    pred = [0] * len(acts)
    for a, b in dfg.edges:
        succ[index[a]] |= 1 << index[b]
        pred[index[b]] |= 1 << index[a]
    reach = _closure(succ)  # reach[k]: activities reachable from acts[k]
    reached_by = _closure(pred)  # reached_by[k]: activities reaching acts[k]

    # same[k]: activities other than acts[k] that it reaches exactly when
    # they reach it (both ways or neither)
    everything = (1 << len(acts)) - 1
    same = [everything & ~(reach[k] ^ reached_by[k]) & ~(1 << k)
            for k in range(len(acts))]
    groups = []  # bitsets, in the order of their lowest activity
    left = everything
    while left:
        group = frontier = left & -left
        while frontier:
            grown = 0
            for k in _bits(frontier):
                grown |= same[k]
            frontier = grown & ~group
            group |= frontier
        left &= ~group
        groups.append(group)
    if len(groups) < 2:
        return None

    reaches = [0] * len(groups)  # activities reachable from each group
    for g, group in enumerate(groups):
        for k in _bits(group):
            reaches[g] |= reach[k]
    predecessors = [sum(1 for h, r in enumerate(reaches) if h != g and r & group)
                    for g, group in enumerate(groups)]
    order = sorted(range(len(groups)), key=predecessors.__getitem__)
    return "seq", [frozenset(acts[k] for k in _bits(groups[g])) for g in order]


def _par_cut(dfg: DirectlyFollowsGraph):
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


def _loop_cut(dfg: DirectlyFollowsGraph):
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
    groups = [frozenset(body)] + sorted(redos, key=lambda c: sorted(c))
    return "loop", groups


def _split_xor(traces, where, n):
    sublogs: list[list[Trace]] = [[] for _ in range(n)]
    for t in traces:
        sublogs[where[t[0]]].append(t)
    return sublogs


def _project(traces, where, n):
    """Each trace projected onto each group (sequence and parallel cuts)."""
    sublogs: list[list[Trace]] = [[] for _ in range(n)]
    for t in traces:
        parts: list[list[str]] = [[] for _ in range(n)]
        for ev in t:
            parts[where[ev]].append(ev)
        for sub, part in zip(sublogs, parts):
            sub.append(tuple(part))
    return sublogs


def _split_loop(traces, where, n):
    """Each trace cut into its maximal runs within one group; a trace that
    ends in a redo group gets an empty closing body run."""
    sublogs: list[list[Trace]] = [[] for _ in range(n)]
    for t in traces:
        cur_group = 0
        cur: list[str] = []
        for ev in t:
            g = where[ev]
            if g != cur_group:
                sublogs[cur_group].append(tuple(cur))
                cur = []
                cur_group = g
            cur.append(ev)
        sublogs[cur_group].append(tuple(cur))
        if cur_group != 0:  # trace must close in the body
            sublogs[0].append(())
    return sublogs


# ---------------------------------------------------------------------------
# process tree -> workflow net


class _NetBuilder:
    def __init__(self):
        self.places: list[str] = []
        self.transitions: list[Transition] = []
        self.arcs: list[tuple[str, str]] = []
        self._p = 0
        self._t = 0

    def place(self) -> str:
        name = f"p{self._p}"
        self._p += 1
        self.places.append(name)
        return name

    def transition(self, label: Optional[str]) -> str:
        name = f"t{self._t}"
        self._t += 1
        self.transitions.append(Transition(name, label))
        return name

    def arc(self, src: str, dst: str) -> None:
        self.arcs.append((src, dst))


def _build(tree: ProcessTree, builder: _NetBuilder, p_in: str, p_out: str) -> None:
    if tree.kind in ("act", "tau"):
        t = builder.transition(tree.label if tree.kind == "act" else None)
        builder.arc(p_in, t)
        builder.arc(t, p_out)
        return
    if tree.kind == "seq":
        cur = p_in
        for child in tree.children[:-1]:
            nxt = builder.place()
            _build(child, builder, cur, nxt)
            cur = nxt
        _build(tree.children[-1], builder, cur, p_out)
        return
    if tree.kind == "xor":
        for child in tree.children:
            _build(child, builder, p_in, p_out)
        return
    if tree.kind == "par":
        split = builder.transition(None)
        join = builder.transition(None)
        builder.arc(p_in, split)
        builder.arc(join, p_out)
        for child in tree.children:
            cin = builder.place()
            cout = builder.place()
            builder.arc(split, cin)
            builder.arc(cout, join)
            _build(child, builder, cin, cout)
        return
    if tree.kind == "loop":
        enter = builder.transition(None)
        exit_t = builder.transition(None)
        body_in = builder.place()
        body_out = builder.place()
        builder.arc(p_in, enter)
        builder.arc(enter, body_in)
        builder.arc(body_out, exit_t)
        builder.arc(exit_t, p_out)
        _build(tree.children[0], builder, body_in, body_out)
        for redo in tree.children[1:]:
            _build(redo, builder, body_out, body_in)
        return
    raise ValueError(f"unknown tree kind {tree.kind}")


def tree_to_net(tree: ProcessTree) -> PetriNet:
    """Compositional translation; the result is a workflow net with a unique
    source and a unique sink place."""
    builder = _NetBuilder()
    source = builder.place()
    sink = builder.place()
    _build(tree, builder, source, sink)
    return PetriNet(builder.places, builder.transitions, builder.arcs,
                    Counter({source: 1}), Counter({sink: 1}))
