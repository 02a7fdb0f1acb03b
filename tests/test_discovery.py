import inspect
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playmine.conformance import (
    FITTING,
    classify_fitting,
    fitness_metrics,
    optimal_alignment,
)
from playmine.discovery import (
    ProcessTree,
    _BitDfg,
    _loop_cut,
    _maximal_pairs,
    _par_cut,
    _reach,
    _seq_cut,
    _xor_cut,
    act,
    alpha_miner,
    inductive_miner,
    loop,
    par,
    seq,
    tau,
    tree_to_net,
    xor,
)
from playmine.eventlog import EventLog
from playmine.petri import PetriNet, Transition, net_to_json
from helpers import mklog
from oracles import (
    directly_follows,
    has_unique_source_and_sink,
    oracle_alpha_miner,
    oracle_loop_cut,
    oracle_par_cut,
    oracle_reachable,
    oracle_seq_cut,
    oracle_xor_cut,
    visible_language,
)

# the classic workflow-discovery teaching log
TEXTBOOK = ["ABCD", "ACBD", "ABCD", "ACBD", "AED"]


def letters(trace):
    return tuple(trace)


def random_tree(rng, acts):
    """A random binary process tree over the activities ``acts``: a leaf is
    an activity, an inner node ``(op, left, right)`` with op one of s(eq),
    x(or), p(ar) and l(oop)."""
    if len(acts) == 1:
        return acts[0]
    k = rng.randrange(1, len(acts))
    return rng.choice("sxpl"), random_tree(rng, acts[:k]), random_tree(rng, acts[k:])


def play(rng, tree) -> list:
    """One random trace of ``random_tree``'s ``tree``."""
    if isinstance(tree, str):
        return [tree]
    op, left, right = tree
    if op == "s":
        return play(rng, left) + play(rng, right)
    if op == "x":
        return play(rng, rng.choice((left, right)))
    if op == "l":
        out = play(rng, left)
        while rng.random() < 0.5:
            out += play(rng, right) + play(rng, left)
        return out
    a, b = play(rng, left), play(rng, right)  # par: a random interleaving
    out = []
    while a or b:
        out.append((a if a and (not b or rng.random() < 0.5) else b).pop(0))
    return out


def random_traces(rng) -> list:
    """Traces of a random process tree over up to 8 activities, sometimes
    mixed with an empty trace, a single-activity trace or a random one."""
    acts = rng.sample("abcdefgh", rng.randrange(1, 9))
    tree = random_tree(rng, acts)
    traces = [tuple(play(rng, tree)) for _ in range(rng.randrange(1, 16))]
    if rng.random() < 0.2:
        traces.append(())
    if rng.random() < 0.2:
        traces.append((rng.choice(acts),))
    if rng.random() < 0.1:
        traces.append(tuple(rng.choice(acts) for _ in range(rng.randrange(2, 6))))
    return traces


def tree_dfg(tree):
    """The start activities, end activities, directly-follows pairs and
    activities of the language of ``random_tree``'s ``tree``, from its
    operators: a sequence joins the left ends to the right starts, a
    parallel joins every left activity to every right one both ways, and a
    loop joins the body's ends to the redo's starts and back."""
    if isinstance(tree, str):
        return {tree}, {tree}, set(), {tree}
    op, left, right = tree
    s1, e1, d1, a1 = tree_dfg(left)
    s2, e2, d2, a2 = tree_dfg(right)
    acts = a1 | a2
    if op == "s":
        return s1, e2, d1 | d2 | {(a, b) for a in e1 for b in s2}, acts
    if op == "x":
        return s1 | s2, e1 | e2, d1 | d2, acts
    if op == "p":
        both = {(a, b) for a in a1 for b in a2}
        return s1 | s2, e1 | e2, d1 | d2 | both | {(b, a) for a, b in both}, acts
    return s1, e1, d1 | d2 | {(a, b) for a in e1 for b in s2} | {(b, a) for a in s1 for b in e2}, acts


def rediscoverable(tree) -> bool:
    """Whether no loop of ``random_tree``'s ``tree`` has a body that can
    start and end with the same activity."""
    if isinstance(tree, str):
        return True
    op, left, right = tree
    body_starts, body_ends = tree_dfg(left)[:2]
    return ((op != "l" or not body_starts & body_ends)
            and rediscoverable(left) and rediscoverable(right))


def as_tree(tree) -> ProcessTree:
    """``random_tree``'s ``tree`` as a ``ProcessTree``."""
    if isinstance(tree, str):
        return act(tree)
    op, left, right = tree
    return {"s": seq, "x": xor, "p": par, "l": loop}[op](as_tree(left), as_tree(right))


def bit_dfg(traces) -> _BitDfg:
    return _BitDfg(sorted({a for t in traces for a in t}), traces)


class TestDirectlyFollows:
    """The reference DFG of the oracles, and the miners' bitset DFG against
    it."""

    def test_textbook_log(self):
        dfg = directly_follows(mklog([letters(t) for t in TEXTBOOK]))
        assert set(dfg.edges) == {("A", "B"), ("B", "C"), ("C", "D"),
                                  ("A", "C"), ("C", "B"), ("B", "D"),
                                  ("A", "E"), ("E", "D")}
        assert set(dfg.start_activities) == {"A"}
        assert set(dfg.end_activities) == {"D"}

    def test_single_event_case(self):
        dfg = directly_follows(mklog([("A",)]))
        assert not dfg.edges
        assert set(dfg.start_activities) == {"A"}
        assert set(dfg.end_activities) == {"A"}

    def test_counts(self):
        dfg = directly_follows(mklog([letters("ABCD"), letters("ABCD")]))
        assert dfg.edges[("A", "B")] == 2
        assert dfg.start_activities["A"] == 2

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            directly_follows(EventLog())

    def test_bitset_dfg_matches_reference(self):
        rng = random.Random(5)
        for _ in range(500):
            traces = random_traces(rng)
            dfg, want = bit_dfg(traces), directly_follows(mklog(traces))
            assert dfg.alphabet == sorted(want.activities)
            index = {a: k for k, a in enumerate(dfg.alphabet)}
            edges = {(a, b) for a in dfg.alphabet for b in dfg.alphabet
                     if dfg.succ[index[a]] >> index[b] & 1}
            assert edges == set(want.edges), traces
            assert all(dfg.pred[index[b]] >> index[a] & 1 == ((a, b) in edges)
                       for a in dfg.alphabet for b in dfg.alphabet)
            assert dfg.starts == sum(1 << index[a] for a in want.start_activities)
            assert dfg.ends == sum(1 << index[a] for a in want.end_activities)
            assert dfg.every == (1 << len(dfg.alphabet)) - 1
            assert dfg.linked == [s | p for s, p in zip(dfg.succ, dfg.pred)]


class TestAlphaMiner:
    def test_textbook_net_language(self):
        net = alpha_miner(mklog([letters(t) for t in TEXTBOOK]))
        assert visible_language(net, max_len=5) == {
            ("A", "B", "C", "D"), ("A", "C", "B", "D"), ("A", "E", "D")}

    def test_concurrency_structure(self):
        net = alpha_miner(mklog([letters(t) for t in TEXTBOOK]))
        # B and C share no place; E shares a place with each of B and C
        by_label = {t.label: t.name for t in net.transitions}
        pre = {label: set(net.preset[name]) for label, name in by_label.items()}
        assert pre["B"] & pre["E"]
        assert pre["C"] & pre["E"]
        assert not pre["B"] & pre["C"]

    def test_single_causal_pair(self):
        net = alpha_miner(mklog([("A", "B")]))
        assert {t.label for t in net.transitions} == {"A", "B"}
        assert len(net.places) == 3  # source, sink, one causal place
        assert optimal_alignment(("A", "B"), net).raw_cost == 0

    def test_short_loop_log_is_not_replayable(self):
        log = mklog([("A", "B", "A", "B")])
        net = alpha_miner(log)
        report = fitness_metrics(log, net)
        assert report.trace_fitness < 1.0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            alpha_miner(EventLog())

    def test_deterministic(self):
        log = mklog([letters(t) for t in TEXTBOOK])
        assert alpha_miner(log) == alpha_miner(log)

    def test_self_looped_seed_matches_all_pairs_oracle(self):
        # a and d loop on themselves, c does not; all three lead to b.  The
        # search may seed a pair with a looped activity but never add one,
        # so ({c}, {b}) grows into ({a, c}, {b}) only from the a side: it is
        # dominated although it has no extension of its own.  ({a, c, d},
        # {b}) would hold two looped activities and is never stored, so
        # ({a, c}, {b}) and ({c, d}, {b}) are both maximal.
        log = mklog([("a", "a", "b"), ("c", "b"), ("d", "d", "b")])
        want = oracle_alpha_miner(log)
        assert len(want.places) == 4  # source, sink, {a, c} -> b, {c, d} -> b
        assert net_to_json(alpha_miner(log)) == net_to_json(want)

    def test_matches_all_pairs_oracle_on_random_logs(self):
        rng = random.Random(3)
        looped = 0
        for _ in range(400):
            alphabet = "abcdefg"[:rng.randrange(2, 8)]
            traces = [tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
                      for _ in range(rng.randrange(1, 7))]
            log = mklog(traces)
            looped += any(a == b for t in traces for a, b in zip(t, t[1:]))
            assert net_to_json(alpha_miner(log)) == net_to_json(oracle_alpha_miner(log)), traces
        assert looped >= 100

    def test_matches_oracle_when_looped_activities_share_a_successor(self):
        # a side of a pair holds at most one self-looped activity, so each
        # looped activity causal into b gets a pair of its own
        rng = random.Random(11)
        shared = 0
        for _ in range(300):
            alphabet = "abcdefgh"[:rng.randrange(3, 9)]
            looped = rng.sample(alphabet, rng.randrange(2, min(4, len(alphabet))))
            target = rng.choice([a for a in alphabet if a not in looped])
            traces = [(a, a, target) for a in looped]
            traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 7)))
                       for _ in range(rng.randrange(0, 4))]
            rng.shuffle(traces)
            log = mklog(traces)
            df = set(directly_follows(log).edges)
            self_looped = {a for a in alphabet if (a, a) in df}
            shared += any(sum((a, b) in df and (b, a) not in df for a in self_looped) >= 2
                          for b in alphabet)
            assert net_to_json(alpha_miner(log)) == net_to_json(oracle_alpha_miner(log)), traces
        assert shared >= 150

    def test_each_maximal_pair_is_found_once(self):
        rng = random.Random(12)
        for _ in range(300):
            traces = random_traces(rng)
            if any(traces):
                pairs = _maximal_pairs(bit_dfg(traces))
                assert len(set(pairs)) == len(pairs), traces

    @pytest.mark.parametrize("shape", ["choice", "fork"])
    def test_sixty_four_way_choice_and_fork(self, shape):
        # cases (x_i, y) or (x, y_i): all 64 ways share one place; growing
        # pairs one activity at a time would store all 2**64 subsets
        ways = [f"{'x' if shape == 'choice' else 'y'}{i:02d}" for i in range(64)]
        traces = [(w, "y") if shape == "choice" else ("x", w) for w in ways]
        activities = sorted({a for t in traces for a in t})
        t = {a: f"t{k}" for k, a in enumerate(activities)}
        firsts, lasts = (ways, ["y"]) if shape == "choice" else (["x"], ways)
        want = PetriNet(["source", "sink", "p0"],
                        [Transition(t[a], a) for a in activities],
                        [("source", t[a]) for a in firsts]
                        + [(t[a], "sink") for a in lasts]
                        + [(t[a], "p0") for a in firsts]
                        + [("p0", t[a]) for a in lasts],
                        Counter({"source": 1}), Counter({"sink": 1}))
        # a search that recursed once per member would need 63 more frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            t0 = time.perf_counter()
            got = alpha_miner(mklog(traces))
            elapsed = time.perf_counter() - t0
        finally:
            sys.setrecursionlimit(limit)
        assert elapsed < 1.0
        assert net_to_json(got) == net_to_json(want)


class TestReach:
    """``_reach``, the sequence cut's one pass over strongly connected
    components, against a breadth-first search from every node."""

    def test_matches_bfs_on_random_digraphs(self):
        rng = random.Random(6)
        wide = looped = cyclic = 0
        for _ in range(200):
            n = rng.choice((rng.randrange(1, 12), rng.randrange(65, 140)))
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randrange(2 * n + 1))}
            if rng.random() < 0.5:  # a DAG, and so long paths
                edges = {(u, v) for u, v in edges if u < v}
            for _ in range(rng.randrange(3)):  # planted cycles, of one node too
                ring = rng.sample(range(n), rng.randrange(1, min(n, 6) + 1))
                edges.update(zip(ring, ring[1:] + ring[:1]))
            succ, pred = [0] * n, [0] * n
            for u, v in edges:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
            want = oracle_reachable(n, edges)
            reach, reached_by = _reach(succ, pred)
            assert reach == [sum(1 << j for j in r) for r in want]
            assert reached_by == [sum(1 << j for j in range(n) if k in want[j])
                                  for k in range(n)]
            wide += n > 64
            looped += any(u == v for u, v in edges)
            cyclic += any(k in want[k] for k in range(n) if (k, k) not in edges)
        assert wide >= 60 and looped >= 60 and cyclic >= 100


class TestCuts:
    """Each bitset cut against its oracle on the reference DFG of the same
    random traces: the same groups in the same order.

    The sequence oracle is a union-find.  After its first merge pass, two
    activities in different classes are reachable one way only, and every
    cross pair of two classes is reachable the same way.  (Let x1, x2 be
    merged directly and y lie in another class with x1 -> y -> x2.  If x1
    and x2 reach each other, y reaches x1 too; if neither reaches the other,
    x1 reaches x2 through y.  Both contradict, and the rest follows along
    the chain of direct merges.)  So the fixpoint merges only mutually
    reachable classes, of which there are none left, and the partition does
    not depend on union order: it is the connected components of "reachable
    both ways or neither way"."""

    @pytest.mark.parametrize("cut,oracle", [
        (_xor_cut, oracle_xor_cut), (_seq_cut, oracle_seq_cut),
        (_par_cut, oracle_par_cut), (_loop_cut, oracle_loop_cut),
    ], ids=["xor", "seq", "par", "loop"])
    def test_matches_oracle_on_random_traces(self, cut, oracle):
        rng = random.Random(4)
        cuts = many = 0
        for _ in range(2000):
            traces = random_traces(rng)
            dfg = bit_dfg(traces)
            got = cut(dfg)
            if got is not None:
                kind, groups = got
                got = kind, [frozenset(a for k, a in enumerate(dfg.alphabet) if g >> k & 1)
                             for g in groups]
            want = oracle(directly_follows(mklog(traces)))
            assert got == want, traces
            cuts += want is not None
            many += want is not None and len(want[1]) > 2
        assert cuts >= 150 and many >= 10

    def test_loop_cut_body_holds_every_trace_start_and_end(self):
        """``_split_loop`` relies on it: each trace opens and closes with a
        run in the body, group 0.  The miner reaches the cuts only with
        non-empty traces."""
        rng = random.Random(4)
        loops = 0
        for _ in range(2000):
            traces = [t for t in random_traces(rng) if t]
            if not traces:
                continue
            dfg = bit_dfg(traces)
            got = _loop_cut(dfg)
            if got is None:
                continue
            body = got[1][0]
            index = {a: k for k, a in enumerate(dfg.alphabet)}
            for t in traces:
                assert body >> index[t[0]] & 1 and body >> index[t[-1]] & 1, traces
            loops += 1
        assert loops >= 300

class TestInductiveMiner:
    def test_sequence_with_concurrent_middle(self):
        tree = inductive_miner(mklog([letters("ABCD"), letters("ACBD")]))
        assert tree == seq(act("A"), par(act("B"), act("C")), act("D"))

    def test_single_activity_leaf(self):
        assert inductive_miner(mklog([("A",)])) == act("A")

    def test_exclusive_choice(self):
        tree = inductive_miner(mklog([("A",), ("B",)]))
        assert tree.kind == "xor"
        assert {c.label for c in tree.children} == {"A", "B"}

    def test_flower_fallback_replays_any_ordering(self):
        # no exclusive-choice, sequence, parallel or loop cut exists here
        log = mklog([("A", "B", "A", "D", "A", "D")])
        tree = inductive_miner(log)
        assert tree.kind == "loop" and tree.children[0].kind == "tau"
        net = tree_to_net(tree)
        for trace in [("B", "A", "B", "A"), ("A",), ("D", "D", "D")]:
            assert optimal_alignment(trace, net).raw_cost == 0

    def test_loop_detection(self):
        log = mklog([("A", "B", "A"), ("A",), ("A", "B", "A", "B", "A")])
        tree = inductive_miner(log)
        net = tree_to_net(tree)
        for _, trace in log.traces():
            assert optimal_alignment(trace, net).raw_cost == 0
        # the loop shape must not over-permit a redo without the body
        assert optimal_alignment(("A", "B", "B", "A"), net).raw_cost > 0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            inductive_miner(EventLog())

    def test_all_empty_traces_mine_to_tau(self):
        log = mklog([(), ()])
        tree = inductive_miner(log)
        assert tree == tau()
        assert classify_fitting(fitness_metrics(log, tree_to_net(tree))) == FITTING

    def test_deterministic(self):
        log = mklog([letters(t) for t in TEXTBOOK])
        assert inductive_miner(log) == inductive_miner(log)

    @given(st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
        min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_perfect_replay_guarantee(self, raw_traces):
        traces = [tuple(t) for t in raw_traces]
        net = tree_to_net(inductive_miner(mklog(traces)))
        for trace in traces:
            assert optimal_alignment(trace, net).raw_cost == 0


class TestMultiplicity:
    """Both miners read only which traces occur, not how often or in which
    order; ``_im`` mines each distinct trace once."""

    def test_duplicated_and_shuffled_cases_mine_alike(self):
        rng = random.Random(13)
        for _ in range(300):
            traces = random_traces(rng)
            more = traces + [rng.choice(traces) for _ in range(rng.randrange(1, 12))]
            rng.shuffle(more)
            log, again = mklog(traces), mklog(more)
            assert inductive_miner(again) == inductive_miner(log), traces
            assert net_to_json(alpha_miner(again)) == net_to_json(alpha_miner(log)), traces


class TestInductiveRediscovery:
    """The inductive miner rediscovers a block-structured tree without
    duplicate or silent activities from any log that is directly-follows
    complete against it (Leemans, Fahland & van der Aalst, Petri Nets 2013),
    up to language.  The theorem's class also asks that no loop's body can
    start and end with the same activity: ``loop(e, c)`` inside a parallel
    is mined as a loop with c as redo and the parallel's other activities
    in the body.  The trees are ``random_tree``'s in that class, and each
    log grows by sampled traces until its DFG is the tree's own."""

    def test_rediscovers_random_trees_from_complete_logs(self):
        rng = random.Random(14)
        trees = 0
        holding = Counter()  # trees holding each operator
        while trees < 200:
            tree = random_tree(rng, rng.sample("abcdef", rng.randrange(1, 7)))
            if not rediscoverable(tree):
                continue
            trees += 1
            holding.update(set(repr(tree)) & set("sxpl"))
            starts, ends, edges, acts = tree_dfg(tree)
            traces, seen = [], (set(), set(), set())
            while seen != (starts, ends, edges):
                assert len(traces) < 5000, tree
                trace = tuple(play(rng, tree))
                traces.append(trace)
                seen[0].add(trace[0])
                seen[1].add(trace[-1])
                seen[2].update(zip(trace, trace[1:]))
                assert seen[2] <= edges, tree
            mined = tree_to_net(inductive_miner(mklog(traces)))
            bound = len(acts) + 2
            assert visible_language(mined, bound) == visible_language(
                tree_to_net(as_tree(tree)), bound), tree
        assert min(holding[op] for op in "sxp") >= 60 and holding["l"] >= 10


class TestTreeToNet:
    def test_activity_leaf(self):
        net = tree_to_net(act("A"))
        assert len(net.places) == 2
        assert len(net.transitions) == 1
        assert optimal_alignment(("A",), net).raw_cost == 0

    def test_sequence_is_linear(self):
        net = tree_to_net(seq(act("A"), act("B")))
        assert len(net.places) == 3
        assert optimal_alignment(("A", "B"), net).raw_cost == 0

    def test_parallel_replays_both_orders(self):
        net = tree_to_net(par(act("B"), act("C")))
        assert optimal_alignment(("B", "C"), net).raw_cost == 0
        assert optimal_alignment(("C", "B"), net).raw_cost == 0
        silent = [t for t in net.transitions if t.silent]
        assert len(silent) == 2  # fork and join

    def test_loop_semantics(self):
        net = tree_to_net(loop(act("A"), act("B")))
        assert optimal_alignment(("A",), net).raw_cost == 0
        assert optimal_alignment(("A", "B", "A"), net).raw_cost == 0
        assert optimal_alignment(("A", "A"), net).raw_cost > 0

    def test_workflow_net_shape(self):
        rng = random.Random(9)
        for _ in range(50):
            traces = [tuple(rng.choice("abcd") for _ in range(rng.randrange(1, 7)))
                      for _ in range(rng.randrange(1, 5))]
            net = tree_to_net(inductive_miner(mklog(traces)))
            assert has_unique_source_and_sink(net)

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            ProcessTree("loop", children=(act("A"),))
        with pytest.raises(ValueError):
            ProcessTree("act")
        with pytest.raises(ValueError):
            ProcessTree("tau", children=(act("A"),))
