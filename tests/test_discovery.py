import random

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
    _par_cut,
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
)
from playmine.eventlog import EventLog
from playmine.petri import net_to_json
from helpers import mklog
from oracles import (
    directly_follows,
    has_unique_source_and_sink,
    oracle_alpha_miner,
    oracle_loop_cut,
    oracle_par_cut,
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
