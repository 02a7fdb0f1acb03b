"""Process discovery: alpha miner, inductive miner, process tree to net.

Both miners read one directly-follows graph, ``_BitDfg``, in which every
set of activities is an int bitset over the sorted alphabet: bit k stands
for ``alphabet[k]``, so ordering sets by their bit indices orders them by
their activity names.

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
from typing import Optional, Sequence

from .eventlog import EventLog
from .petri import PetriNet, Transition

Trace = tuple[str, ...]


class _BitDfg:
    """The directly-follows graph of ``traces`` over the sorted ``alphabet``:
    ``succ[k]`` and ``pred[k]`` are the activities directly after and before
    activity k, ``linked[k]`` their union, ``starts`` and ``ends`` those that
    begin and end a trace, and ``every`` the whole alphabet.  Empty traces
    are skipped."""

    __slots__ = ("alphabet", "succ", "pred", "linked", "starts", "ends", "every")

    def __init__(self, alphabet: Sequence[str], traces: Sequence[Trace]):
        index = {a: k for k, a in enumerate(alphabet)}
        self.alphabet = alphabet
        self.succ = [0] * len(alphabet)
        self.pred = [0] * len(alphabet)
        self.every = (1 << len(alphabet)) - 1
        self.starts = self.ends = 0
        edges = set()
        for trace in traces:
            if trace:
                self.starts |= 1 << index[trace[0]]
                self.ends |= 1 << index[trace[-1]]
                edges.update(zip(trace, trace[1:]))
        for a, b in edges:
            self.succ[index[a]] |= 1 << index[b]
            self.pred[index[b]] |= 1 << index[a]
        self.linked = [s | p for s, p in zip(self.succ, self.pred)]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# alpha miner


def alpha_miner(log: EventLog) -> PetriNet:
    if not log.cases:
        raise ValueError("alpha_miner requires a non-empty log")
    traces = [labels for _, labels in log.traces()]
    activities = sorted({a for t in traces for a in t})
    dfg = _BitDfg(activities, traces)

    # k is self-looped iff it is linked to itself, and k, j are unrelated
    # (k # j) iff bit j of linked[k] is clear.  An (A, B) pair is a pair of
    # bitsets.
    linked = dfg.linked
    succs = [s & ~p for s, p in zip(dfg.succ, dfg.pred)]  # causal k -> j
    preds = [p & ~s for s, p in zip(dfg.succ, dfg.pred)]  # causal j -> k
    looped = sum(1 << k for k, s in enumerate(dfg.succ) if s >> k & 1)

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
        the activities the BFS adds to it (those that are not self-looped)."""
        barred = looped if looped & grown else 0
        valid = [c for c in _bits(candidates & ~grown & ~barred)
                 if not linked[c] & grown]
        return bool(valid), [c for c in valid if not looped >> c & 1]

    # a queued pair carries the activities causal into all of B and out of
    # all of A: the candidates for growing A and B
    queue = deque((1 << a, 1 << b, preds[b], succs[a])
                  for a in range(len(activities)) for b in _bits(succs[a]))
    seen = {(a_set, b_set) for a_set, b_set, _, _ in queue}
    maximal = []
    while queue:
        a_set, b_set, into_b, out_of_a = queue.popleft()
        a_grows, a_adds = growth(a_set, into_b)
        b_grows, b_adds = growth(b_set, out_of_a)
        grown = ([(a_set | 1 << c, b_set, into_b, out_of_a & succs[c]) for c in a_adds]
                 + [(a_set, b_set | 1 << c, into_b & preds[c], out_of_a) for c in b_adds])
        for cand in grown:
            if cand[:2] not in seen:
                seen.add(cand[:2])
                queue.append(cand)
        if not (a_grows or b_grows):
            maximal.append((a_set, b_set))
    maximal.sort(key=lambda p: (list(_bits(p[0])), list(_bits(p[1]))))

    places = ["source", "sink"]
    transitions = [Transition(f"t{k}", a) for k, a in enumerate(activities)]
    arcs: list[tuple[str, str]] = []
    for k in _bits(dfg.starts):
        arcs.append(("source", f"t{k}"))
    for k in _bits(dfg.ends):
        arcs.append((f"t{k}", "sink"))
    for i, (a_set, b_set) in enumerate(maximal):
        p = f"p{i}"
        places.append(p)
        for k in _bits(a_set):
            arcs.append((f"t{k}", p))
        for k in _bits(b_set):
            arcs.append((p, f"t{k}"))
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

    dfg = _BitDfg(alphabet, traces)
    cut = _xor_cut(dfg) or _seq_cut(dfg) or _par_cut(dfg) or _loop_cut(dfg)
    if cut is None:
        return loop(tau(), *(act(a) for a in alphabet))  # flower fallback

    kind, groups = cut
    where = {alphabet[k]: i for i, g in enumerate(groups) for k in _bits(g)}
    split = {"xor": _split_xor, "loop": _split_loop}.get(kind, _project)
    return ProcessTree(kind, children=tuple(_im(sub) for sub in split(traces, where, len(groups))))


def _groups(adj: list, left: int) -> list:
    """Connected components, as bitsets ordered by their lowest activity, of
    the activities in ``left`` joined by the symmetric rows ``adj``; bits of
    a row outside ``left`` are ignored."""
    groups = []
    while left:
        group = frontier = left & -left
        while frontier:
            grown = 0
            for k in _bits(frontier):
                grown |= adj[k]
            frontier = grown & left & ~group
            group |= frontier
        left &= ~group
        groups.append(group)
    return groups


def _xor_cut(dfg: _BitDfg):
    groups = _groups(dfg.linked, dfg.every)
    if len(groups) < 2:
        return None
    return "xor", groups


def _closure(adj: list) -> list:
    """Transitive closure of bitset adjacency rows (Warshall)."""
    reach = list(adj)
    for k in range(len(reach)):
        bit, rk = 1 << k, reach[k]
        for i, ri in enumerate(reach):
            if ri & bit:
                reach[i] = ri | rk
    return reach


def _seq_cut(dfg: _BitDfg):
    """Groups of activities that are mutually reachable or mutually
    unreachable, joined transitively, in the order the DFG reaches them.

    Two activities in different groups are reachable one way only, and
    every cross pair of two groups is reachable the same way, so the groups
    are totally ordered: each has a distinct number of predecessor groups.
    """
    reach = _closure(dfg.succ)  # reach[k]: activities reachable from k
    reached_by = _closure(dfg.pred)  # reached_by[k]: activities reaching k

    # same[k]: activities that k reaches exactly when they reach it (both
    # ways or neither)
    same = [~(r ^ rb) for r, rb in zip(reach, reached_by)]
    groups = _groups(same, dfg.every)
    if len(groups) < 2:
        return None

    reaches = [0] * len(groups)  # activities reachable from each group
    for g, group in enumerate(groups):
        for k in _bits(group):
            reaches[g] |= reach[k]
    predecessors = [sum(1 for h, r in enumerate(reaches) if h != g and r & group)
                    for g, group in enumerate(groups)]
    order = sorted(range(len(groups)), key=predecessors.__getitem__)
    return "seq", [groups[g] for g in order]


def _par_cut(dfg: _BitDfg):
    """Components of the activities not directly following each other both
    ways; each must hold a start and an end activity."""
    groups = _groups([~(s & p) for s, p in zip(dfg.succ, dfg.pred)], dfg.every)
    if len(groups) < 2 or not all(g & dfg.starts and g & dfg.ends for g in groups):
        return None
    return "par", groups


def _loop_cut(dfg: _BitDfg):
    """The start and end activities form the body; a component of the rest
    is a redo group when it is entered only from end activities and left
    only to start activities, and joins the body otherwise."""
    body = dfg.starts | dfg.ends
    redos = []
    for comp in _groups(dfg.linked, dfg.every & ~body):
        outside = ~comp
        if all(not dfg.pred[k] & outside & ~dfg.ends
               and not dfg.succ[k] & outside & ~dfg.starts for k in _bits(comp)):
            redos.append(comp)
        else:
            body |= comp
    if not redos:
        return None
    return "loop", [body] + redos


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
    """Each trace cut into its maximal runs within one group.  ``_loop_cut``
    puts every start and end activity in the body, group 0, so every trace
    starts and ends with a body run."""
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
