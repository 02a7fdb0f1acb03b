import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playmine import conformance
from playmine.board import Color, apply_move, initial_board, legal_moves, winner
from playmine.conformance import (
    FITTING,
    NON_FITTING,
    FitnessReport,
    ModelUnsoundError,
    classify_fitting,
    fitness_metrics,
    optimal_alignment,
    write_report_csv,
)
from playmine.discovery import (
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
from playmine.episodes import StepRecord, abstract_move
from playmine.eventlog import build_event_log
from playmine.petri import PetriNet, Transition
from helpers import mklog
from oracles import (
    oracle_alignment,
    oracle_alignment_cost,
    oracle_token_cap,
    sample_complete_trace,
)


def chain_net(labels):
    return tree_to_net(seq(*(act(a) for a in labels)))


def make_report(tf=1.0, mm=1.0, ml=1.0):
    return FitnessReport(trace_fitness=tf, move_model_fitness=mm,
                         move_log_fitness=ml, raw_fitness_cost=0.0,
                         trace_length=5.0, num_states=1.0, calc_time_ms=0.1,
                         preprocess_time_ms=0.1, approx_memory_kb=1.0,
                         num_traces=1)


# a small structural zoo, every net at most 6 transitions
SUITE_TREES = [
    act("A"),
    seq(act("A"), act("B")),
    seq(act("A"), act("B"), act("C")),
    par(act("A"), act("B")),
    seq(act("A"), par(act("B"), act("C")), act("D")),
    loop(act("A"), act("B")),
    loop(seq(act("A"), act("B")), act("C")),
    seq(act("A"), loop(act("B"), tau()), act("C")),
    par(act("A"), seq(act("B"), act("C"))),
    loop(act("A"), act("B"), act("C")),
    seq(act("A"), act("A")),  # duplicate labels
]


def suite_nets():
    nets = [tree_to_net(t) for t in SUITE_TREES]
    nets.append(alpha_miner(mklog([("A", "B", "C", "D"), ("A", "C", "B", "D"),
                                   ("A", "E", "D")])))
    nets.append(alpha_miner(mklog([("A", "B", "A", "B")])))
    for net in nets:
        assert len([t for t in net.transitions if not t.silent]) <= 6
    return nets


def token_cap_net(final):
    """``p -> t -> {p, q}``: every firing of ``t`` adds a token, so only the
    token cap bounds the search."""
    return PetriNet(
        places=["p", "q"],
        transitions=[Transition("t", "A")],
        arcs=[("p", "t"), ("t", "p"), ("t", "q")],
        initial_marking=Counter({"p": 1}),
        final_marking=Counter(final),
    )


def random_play_log(rng, color, cases=5, events=8, pieces=3):
    """Decisions of ``color`` in games of random legal play, one case each."""
    traces = []
    while len(traces) < cases:
        board, side = initial_board(pieces), Color.RED
        steps, last_id, last_move = [], -1, ()
        while len(steps) < events and winner(board, side) is None:
            moves = legal_moves(board, side)
            move = moves[rng.randrange(len(moves))]
            movement = abstract_move(move.from_pos, move.to_pos)
            if side is color:
                steps.append(StepRecord(last_id, last_move, move.piece_id,
                                        movement, move.captured_ids, move.reward))
            last_id, last_move = move.piece_id, movement
            board = apply_move(board, move)
            side = side.opponent
        if len(steps) >= 2:
            traces.append(steps)
    return build_event_log(enumerate(traces, start=1))


def fitness_alignment_calls(log, net):
    """``(trace, token cap)`` of every alignment ``fitness_metrics`` runs,
    the empty-trace alignment (the cheapest model run) first; the cap is
    that of the marking graph the alignments share."""
    calls = []
    align = conformance.optimal_alignment

    def recording(trace, net, **kwargs):
        calls.append((tuple(trace), kwargs["_graph"].cap))
        return align(trace, net, **kwargs)

    conformance.optimal_alignment = recording
    try:
        fitness_metrics(log, net)
    finally:
        conformance.optimal_alignment = align
    return calls


GOLDEN_PATH = Path(__file__).parent / "data" / "alignment_golden.json"
GOLDEN_TRACES = [(), ("A",), ("B", "A"), ("A", "B"), ("A", "C", "B", "D"),
                 ("A", "B", "A", "B"), ("X", "A", "B", "C", "D")]


def golden_cases():
    """``(case id, trace, net, token cap)`` pinned by the golden file; a
    cap of None is the one ``optimal_alignment`` derives."""
    for k, net in enumerate(suite_nets()):
        for trace in GOLDEN_TRACES:
            yield f"suite{k}/{'.'.join(trace)}", trace, net, None
    # the final marking holds 3 tokens: reachable at cap 3, not at cap 2
    net = token_cap_net({"p": 1, "q": 2})
    for cap in (None, 3, 2):
        for trace in ((), ("A",), ("A", "A", "A", "A")):
            yield f"token-cap/{cap}/{'.'.join(trace)}", trace, net, cap
    rng = random.Random(5)
    for k in range(3):
        log = random_play_log(rng, Color.RED if k % 2 else Color.WHITE)
        net = tree_to_net(inductive_miner(log))
        calls = fitness_alignment_calls(log, net)
        for j, (trace, cap) in enumerate(calls):
            yield f"game{k}/{j}", trace, net, cap
        # a non-fitting trace: the longest variant backwards
        longest = max((t for t, _ in calls), key=len)
        yield f"game{k}/reversed", longest[::-1], net, None


def align_at_cap(trace, net, cap):
    """``optimal_alignment`` on a fresh marking graph at ``cap``, or at
    the derived cap when ``cap`` is None."""
    if cap is None:
        return optimal_alignment(trace, net)
    return optimal_alignment(trace, net, _graph=conformance._MarkingGraph(net, cap))


def golden_record(trace, net, cap):
    """``[raw_cost, states_explored, moves]`` or ``"unsound"``; a move is
    ``kind:transition`` (log moves have no transition)."""
    try:
        res = align_at_cap(trace, net, cap)
    except ModelUnsoundError:
        return "unsound"
    assert res.log_projection == tuple(trace)
    labels = {t.name: t.label for t in net.transitions}
    for m in res.moves:
        if m.transition is not None:
            assert m.label == labels[m.transition]
    return [res.raw_cost, res.states_explored,
            " ".join(f"{m.kind}:{m.transition or ''}" for m in res.moves)]


def all_traces(alphabet, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [t + (a,) for t in frontier for a in alphabet]
        out.extend(frontier)
    return out


class TestOptimalAlignment:
    def test_simulated_trace_replays_perfectly(self):
        rng = random.Random(1)
        for tree in SUITE_TREES:
            net = tree_to_net(tree)
            for _ in range(5):
                trace = sample_complete_trace(net, rng, max_steps=60)
                res = optimal_alignment(trace, net)
                assert res.raw_cost == 0
                assert all(m.kind in ("sync", "tau") for m in res.moves)
                assert res.log_projection == tuple(trace)

    def test_extra_log_event_costs_one(self):
        net = chain_net("A")
        res = optimal_alignment(("A", "B"), net)
        assert res.raw_cost == 1
        assert res.count("log") == 1

    def test_empty_trace_needs_model_moves(self):
        net = chain_net("A")
        res = optimal_alignment((), net)
        assert res.raw_cost == 1
        assert res.count("model") == 1

    def test_model_projection_is_valid_firing_sequence(self):
        net = tree_to_net(seq(act("A"), par(act("B"), act("C"))))
        res = optimal_alignment(("A", "X", "C", "B"), net)
        marking = Counter(net.initial_marking)
        for move in res.moves:
            if move.kind in ("sync", "model", "tau"):
                assert net.is_enabled(marking, move.transition)
                marking = net.fire(marking, move.transition)
        assert marking == net.final_marking

    def test_matches_relaxation_oracle_exhaustively(self):
        nets = suite_nets()
        traces = all_traces(("A", "B"), 4) + [
            ("A", "B", "C", "D"), ("A", "C", "B", "D"), ("A", "E", "D"),
            ("A", "B", "A", "B"), ("C", "C", "A"), ("D", "B", "A", "C"),
            ("A", "B", "C", "A", "B", "C", "A", "B"),
        ]
        checked = 0
        for net in nets:
            for trace in traces:
                assert len(trace) <= 8
                got = optimal_alignment(trace, net).raw_cost
                want = oracle_alignment_cost(trace, net)
                assert got == want, (trace, net)
                checked += 1
        assert checked >= 200

    def test_unsound_net_detected(self):
        # the final marking asks for a place no transition can ever fill
        net = PetriNet(
            places=["p_in", "p_dead"],
            transitions=[Transition("t0", "A")],
            arcs=[("p_in", "t0"), ("t0", "p_in")],
            initial_marking=Counter({"p_in": 1}),
            final_marking=Counter({"p_dead": 1}),
        )
        with pytest.raises(ModelUnsoundError):
            optimal_alignment(("A",), net)


class TestFitnessMetrics:
    def test_simulated_log_is_perfectly_fitting(self):
        rng = random.Random(2)
        net = tree_to_net(seq(act("A"), par(act("B"), act("C")), act("D")))
        traces = [tuple(sample_complete_trace(net, rng)) for _ in range(8)]
        report = fitness_metrics(mklog(traces), net)
        assert report.trace_fitness == 1.0
        assert report.move_model_fitness == 1.0
        assert report.move_log_fitness == 1.0
        assert report.raw_fitness_cost == 0.0
        assert classify_fitting(report) == FITTING

    def test_single_log_move_among_nine_events(self):
        net = chain_net("ABCDEFGH")
        trace = ("A", "B", "C", "D", "X", "E", "F", "G", "H")
        report = fitness_metrics(mklog([trace]), net)
        assert report.move_log_fitness == pytest.approx(1 - 1 / 9)
        assert report.move_model_fitness == 1.0
        assert report.trace_fitness == pytest.approx(1 - 1 / (9 + 8))

    def test_alpha_on_loop_log_shows_paper_pattern(self):
        # a looping log: alpha cannot replay it, trace fitness collapses
        # while move-model fitness stays comparatively high
        log = mklog([("A", "B", "A", "B", "A", "B")])
        net = alpha_miner(log)
        report = fitness_metrics(log, net)
        assert report.trace_fitness < 1.0
        assert report.move_log_fitness < 1.0
        assert report.move_model_fitness > report.trace_fitness
        assert classify_fitting(report) == NON_FITTING

    def test_trace_length_and_cost_are_averaged(self):
        net = chain_net("AB")
        report = fitness_metrics(mklog([("A", "B"), ("A", "B", "X", "X")]), net)
        assert report.trace_length == 3.0
        assert report.raw_fitness_cost == 1.0
        assert report.num_traces == 2

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            fitness_metrics(mklog([]), chain_net("A"))

    def test_explicit_small_cap_is_used(self, monkeypatch):
        # the final marking holds 3 tokens: a cap of 2 makes it unreachable,
        # where the default cap would find it
        net = token_cap_net({"p": 1, "q": 2})
        log = mklog([("A", "A")])
        assert fitness_metrics(log, net).raw_fitness_cost == 0.0
        with pytest.raises(ModelUnsoundError):
            align_at_cap(("A", "A"), net, 2)
        monkeypatch.setattr(conformance, "_default_token_cap", lambda net, n: 2)
        with pytest.raises(ModelUnsoundError):
            fitness_metrics(log, net)


class TestClassifyFitting:
    def test_perfect(self):
        assert classify_fitting(make_report()) == FITTING

    def test_sub_perfect_trace_fitness(self):
        assert classify_fitting(make_report(tf=0.99)) == NON_FITTING

    def test_sub_perfect_move_model(self):
        assert classify_fitting(make_report(mm=0.77)) == NON_FITTING

    def test_tolerance_absorbs_float_noise(self):
        assert classify_fitting(make_report(tf=1.0 - 1e-13)) == FITTING


class TestProperties:
    @given(st.lists(st.sampled_from("ABX"), max_size=6), st.integers(0, 10_000))
    @settings(max_examples=1000, deadline=None)
    def test_metric_bounds(self, raw_trace, seed):
        rng = random.Random(seed)
        tree = SUITE_TREES[rng.randrange(len(SUITE_TREES))]
        net = tree_to_net(tree)
        log = mklog([tuple(raw_trace)])
        report = fitness_metrics(log, net)
        assert 0.0 <= report.trace_fitness <= 1.0
        assert 0.0 <= report.move_model_fitness <= 1.0
        assert 0.0 <= report.move_log_fitness <= 1.0

    def test_appending_junk_never_raises_trace_fitness(self):
        net = tree_to_net(seq(act("A"), act("B")))
        trace = ("A", "B")
        prev = fitness_metrics(mklog([trace]), net).trace_fitness
        for _ in range(4):
            trace = trace + ("JUNK",)
            cur = fitness_metrics(mklog([trace]), net).trace_fitness
            assert cur <= prev
            prev = cur

    def test_shortest_model_path_cost(self):
        def cost(net):
            return optimal_alignment((), net).raw_cost

        assert cost(chain_net("ABC")) == 3
        assert cost(tree_to_net(loop(act("A"), act("B")))) == 1
        assert cost(tree_to_net(par(act("A"), act("B")))) == 2


class TestReportCsv:
    def test_column_set_and_shape(self, tmp_path):
        path = tmp_path / "global_statistics.csv"
        write_report_csv({"red-alpha": make_report(tf=0.1, mm=0.77, ml=0.1),
                          "red-inductive": make_report()}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "Metric,red-alpha,red-inductive"
        rows = [line.split(",")[0] for line in lines[1:]]
        assert rows == ["Calc. Time (ms)", "Num. States", "Trace Fitness",
                        "Raw Fitness Cost", "Move-Model Fitness",
                        "Pre-process time (ms)", "Move-Log Fitness",
                        "Trace Length", "Approx. mem. used (kb)"]


def golden_logs():
    """``(net, variants, token cap)`` of every golden net that is sound at
    that cap; a variant list is one log, each trace once, and a cap of None
    is the derived one."""
    for net in suite_nets():
        yield net, GOLDEN_TRACES, None
    net = token_cap_net({"p": 1, "q": 2})
    for cap in (None, 3):
        yield net, [(), ("A",), ("A", "A", "A", "A")], cap
    rng = random.Random(5)
    for k in range(3):
        log = random_play_log(rng, Color.RED if k % 2 else Color.WHITE)
        variants = list(dict.fromkeys(labels for _, labels in log.traces()))
        yield tree_to_net(inductive_miner(log)), variants, None


class TestSharedMarkingGraph:
    """``fitness_metrics`` runs every alignment of a call on one marking
    graph.  Cost ties break by push order, which follows ``net.transitions``
    and not marking numbers, so a graph grown by earlier alignments must
    leave each alignment exactly as a fresh one finds it."""

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_each_variant_matches_a_fresh_alignment(self, order, monkeypatch):
        align = conformance.optimal_alignment
        expand = conformance._MarkingGraph.expand
        for net, variants, cap in golden_logs():
            if order == "reversed":
                variants = variants[::-1]
            calls, expanded = [], []

            def recording(trace, net, **kwargs):
                res = align(trace, net, **kwargs)
                graph = kwargs["_graph"]
                calls.append((tuple(trace), graph.cap, graph, res))
                return res

            def counting(graph, mid):
                expanded.append((graph, mid))
                return expand(graph, mid)

            with monkeypatch.context() as m:
                m.setattr(conformance, "optimal_alignment", recording)
                m.setattr(conformance._MarkingGraph, "expand", counting)
                if cap is not None:
                    m.setattr(conformance, "_default_token_cap", lambda net, n: cap)
                fitness_metrics(mklog(variants), net)

            graph = calls[0][2]
            assert [c[0] for c in calls] == [()] + [tuple(v) for v in variants]
            assert all(c[2] is graph for c in calls)
            # every marking is expanded at most once per call
            assert len(set(expanded)) == len(expanded)
            assert {g for g, _ in expanded} == {graph}
            assert len(expanded) == sum(s is not None for s in graph.successors)
            if cap is not None:
                assert graph.cap == cap
            for trace, used_cap, _, res in calls:
                fresh = align_at_cap(trace, net, used_cap)
                assert (res.moves, res.raw_cost, res.states_explored) == (
                    fresh.moves, fresh.raw_cost, fresh.states_explored), (trace, net)


class TestExplorationOrder:
    """Alignments, costs and explored-state counts recorded from the
    Counter-marking search before markings became integer vectors.
    ``states_explored`` feeds ``Num. States`` and ``Approx. mem. used`` of
    ``global_statistics.csv``, so the exploration order is part of the
    output.  Regenerate only when that order is meant to change:
    ``PYTHONPATH=src python tests/test_conformance.py``."""

    def test_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        got = {cid: golden_record(trace, net, cap)
               for cid, trace, net, cap in golden_cases()}
        assert list(got) == list(golden)
        for cid, want in golden.items():
            assert got[cid] == want, cid

    def test_token_cap_bounds_unreachable_search(self):
        # t keeps p marked and adds a token to q, so a final marking of q
        # alone is unreachable and only the token cap ends the search
        net = token_cap_net({"q": 1})
        trace = ("A",) * 6
        cap = 1 + 1 + len(net.places) + len(trace) + 4  # the default cap
        with pytest.raises(ModelUnsoundError) as info:
            optimal_alignment(trace, net)
        # p + k*q for every k with 1 + k <= cap, at every trace position
        assert info.value.states_explored == (len(trace) + 1) * cap


# silent transitions everywhere: skips, silent loop bodies and silent
# branches, so 0-cost moves chain and cost ties are common
TAU_TREES = [
    seq(xor(act("A"), tau()), loop(tau(), act("B")), xor(tau(), act("C"))),
    loop(seq(tau(), act("A")), tau()),
    par(xor(tau(), act("A")), loop(act("B"), tau()), seq(tau(), tau(), act("C"))),
]


def oracle_nets():
    """``(kind, net)``: alpha and inductive nets of random play logs, the
    tau-heavy trees and an unsound net whose search only the cap ends."""
    rng = random.Random(13)
    for k in range(3):
        log = random_play_log(rng, Color.RED if k % 2 else Color.WHITE, cases=4, events=5)
        yield "alpha", alpha_miner(log)
        yield "inductive", tree_to_net(inductive_miner(log))
    for tree in TAU_TREES:
        yield "tau", tree_to_net(tree)
    yield "unsound", token_cap_net({"q": 1})


class TestHeapOracle:
    """The two-level queue pops states in the order of the heap keyed
    ``(cost, push order)`` that ``oracle_alignment`` runs over Counter
    markings, so the alignment, its cost and ``states_explored`` agree on
    random traces, fitting or not, on a fresh graph and on one shared at a
    single cap, as ``fitness_metrics`` shares it."""

    def test_matches_heap_order(self):
        rng = random.Random(3)
        kinds = set()
        for kind, net in oracle_nets():
            labels = sorted({t.label for t in net.transitions if not t.silent})
            traces = [()]
            for _ in range(6):
                traces.append(tuple(rng.choice(labels + ["X"])
                                    for _ in range(rng.randrange(1, 6))))
                if kind != "unsound":
                    traces.append(tuple(sample_complete_trace(net, rng)))
            cap = oracle_token_cap(net, max(map(len, traces)))
            shared = conformance._MarkingGraph(net, cap)
            for trace in traces:
                for used_cap, graph in ((None, None), (cap, shared)):
                    moves, cost, explored = oracle_alignment(trace, net, used_cap)
                    try:
                        res = optimal_alignment(trace, net, _graph=graph)
                    except ModelUnsoundError as exc:
                        assert (moves, exc.states_explored) == (None, explored), (kind, trace)
                        kinds.add(kind + " unsound")
                    else:
                        assert (res.moves, res.raw_cost, res.states_explored) == (
                            moves, cost, explored), (kind, trace)
                        kinds.add(kind)
        assert kinds >= {"alpha", "inductive", "tau", "unsound unsound"}, kinds


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {cid: golden_record(trace, net, cap)
               for cid, trace, net, cap in golden_cases()}
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cid)}: {json.dumps(rec)}" for cid, rec in records.items()) + "\n}\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
