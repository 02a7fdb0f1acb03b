import random
from dataclasses import FrozenInstanceError

import pytest

from playmine.conformance import fitness_metrics
from playmine.discovery import inductive_miner, tree_to_net
from playmine.eventlog import format_label
from playmine.explain import (
    Explainer,
    NoObservationError,
    NotFittingError,
    Recommendation,
    WhyNotReport,
    layered_view,
    parse_context_string,
    recommend,
    why_not,
)
from helpers import mklog
from oracles import oracle_recommend, oracle_why_not


def L(last_id, last_move, pid, move, reward):
    return format_label(last_id, last_move, pid, move, reward)


# Three white-side cases: several second-turn contexts, one of which has a
# scoring answer, plus a zero-reward path that chains into a later score.
WHITE_CASES = [
    (
        L(2, ("left", "down"), 2, ("right", "up"), 0),
        L(3, ("left", "down"), 2, ("right", "up"), 7),
        L(1, ("left", "up"), 1, ("right", "down"), 0),
    ),
    (
        L(2, ("left", "down"), 2, ("right", "up"), 0),
        L(3, ("left", "down"), 3, ("right", "down"), 0),
        L(2, ("right", "up"), 3, ("left", "down"), 0),
    ),
    (
        L(2, ("left", "down"), 1, ("right", "up"), 0),
        L(2, ("left", "up"), 3, ("right", "down"), 0),
        L(3, ("right", "down"), 1, ("right", "up"), 7),
    ),
]

RED_CASES = [
    (
        L(-1, (), 2, ("left", "down"), 0),
        L(3, ("right", "up"), 1, ("left", "up"), 7),
    ),
    (
        L(-1, (), 2, ("left", "up"), 0),
        L(3, ("right", "up"), 3, ("right", "up"), 0),
    ),
]


class TestLayeredView:
    def test_layer_count_is_longest_case(self):
        view = layered_view(mklog(WHITE_CASES))
        assert len(view) == 3

    def test_every_event_lands_in_its_turn_layer(self):
        view = layered_view(mklog(RED_CASES))
        assert all(e.context == (-1, ()) for e in view.layer(1))
        total = sum(len(layer) for layer in view.layers)
        distinct = len({ev for case in RED_CASES for ev in case})
        assert total == distinct

    def test_single_case_gives_single_entry_layers(self):
        view = layered_view(mklog([WHITE_CASES[0]]))
        assert [len(layer) for layer in view.layers] == [1, 1, 1]

    def test_layer_out_of_range(self):
        view = layered_view(mklog(RED_CASES))
        with pytest.raises(IndexError):
            view.layer(0)
        with pytest.raises(IndexError):
            view.layer(99)

    def test_view_is_frozen(self):
        view = layered_view(mklog(WHITE_CASES))
        with pytest.raises(FrozenInstanceError):
            view.layers = ()


class TestRecommend:
    def test_white_second_layer_scoring_action(self):
        view = layered_view(mklog(WHITE_CASES))
        rec = recommend(view, 2, (3, ("left", "down")))
        assert rec.action == (2, ("right", "up"))
        assert rec.reward == 7
        assert rec.kind == "immediate-reward"
        assert "captur" in rec.render() or "crown" in rec.render()

    def test_red_second_layer_scoring_action(self):
        view = layered_view(mklog(RED_CASES))
        rec = recommend(view, 2, (3, ("right", "up")))
        assert rec.action == (1, ("left", "up"))
        assert rec.reward == 7

    def test_zero_rewards_fall_back_to_future_chain(self):
        # layer-2 candidates for this context all score 0; the (2,(right,up))
        # candidate chains into the layer-3 transition worth 7
        view = layered_view(mklog(WHITE_CASES))
        rec = recommend(view, 2, (2, ("left", "up")))
        assert rec.reward == 0
        assert rec.kind == "future-reward"
        assert rec.action == (3, ("right", "down"))
        assert rec.supporting is not None
        assert rec.supporting.reward == 7
        assert rec.supporting.context == rec.action
        assert rec.render() == (
            "Recommendation: select piece 3 and move it (right, down); no observed "
            "action scores now, but it chains into piece 1 moving (right, up) worth "
            "7 points in a later turn.")

    def test_ranking_is_reward_then_future_then_order(self):
        view = layered_view(mklog(WHITE_CASES))
        rec = recommend(view, 2, (3, ("left", "down")))
        rewards = [r for _, r in rec.ranked]
        assert rewards == sorted(rewards, reverse=True)

    @pytest.mark.parametrize("entries, want", [
        # a later zero-reward entry of piece 1 must not move it behind piece 2
        ([(1, 7), (2, 7), (1, 0)], 1),
        # the tied entry seen first wins, not the action seen first
        ([(2, 0), (1, 7), (2, 7)], 1),
    ])
    def test_tie_goes_to_the_entry_seen_first(self, entries, want):
        # one case per entry, so all of them land in layer 1
        view = layered_view(mklog([(L(-1, (), pid, ("up",), reward),)
                                   for pid, reward in entries]))
        rec = recommend(view, 1, (-1, ()))
        assert rec.action == (want, ("up",))
        assert rec.reward == 7
        assert rec == oracle_recommend(view, 1, (-1, ()), 2)

    def test_unobserved_context_raises(self):
        view = layered_view(mklog(WHITE_CASES))
        with pytest.raises(NoObservationError):
            recommend(view, 2, (9, ("up",)))

    def test_reward_dominance_property(self):
        view = layered_view(mklog(WHITE_CASES + RED_CASES))
        for layer in range(1, len(view) + 1):
            for context in {e.context for e in view.layer(layer)}:
                rec = recommend(view, layer, context)
                rivals = [e.reward for e in view.layer(layer) if e.context == context]
                assert rec.reward >= max(rivals) - 0  # dominance
                assert rec.reward == max(rivals)

    def test_future_justification_is_backed_by_log(self):
        view = layered_view(mklog(WHITE_CASES))
        rec = recommend(view, 2, (2, ("left", "up")), lookahead=2)
        assert rec.kind == "future-reward"
        found = any(e == rec.supporting
                    for offset in (1, 2) if 2 + offset <= len(view)
                    for e in view.layer(2 + offset))
        assert found


class TestWhyNot:
    def test_zero_reward_alternative(self):
        view = layered_view(mklog(RED_CASES))
        report = why_not(view, 2, (3, ("right", "up")), (3, ("right", "up")))
        assert report.gap == 7
        assert report.alternative_reward == 0
        assert "Not recommended" in report.render()

    def test_recommended_action_has_zero_gap(self):
        view = layered_view(mklog(WHITE_CASES))
        rec = recommend(view, 2, (3, ("left", "down")))
        report = why_not(view, 2, (3, ("left", "down")), rec.action)
        assert report.gap == 0
        assert "not rejected" in report.render()

    def test_unobserved_alternative_raises(self):
        view = layered_view(mklog(WHITE_CASES))
        with pytest.raises(NoObservationError):
            why_not(view, 2, (3, ("left", "down")), (1, ("up",)))


def test_negative_lookahead_is_refused():
    """A lookahead below 0 is a ValueError for each query and the front end;
    0 looks at no later layer."""
    log = mklog(WHITE_CASES)
    view = layered_view(log)
    context, action = (3, ("left", "down")), (2, ("right", "up"))
    with pytest.raises(ValueError, match="lookahead must be >= 0, got -1"):
        recommend(view, 2, context, lookahead=-1)
    with pytest.raises(ValueError, match="lookahead must be >= 0, got -1"):
        why_not(view, 2, context, action, lookahead=-1)
    with pytest.raises(ValueError, match="lookahead must be >= 0, got -1"):
        Explainer.from_log(log, lookahead=-1)
    assert recommend(view, 2, context, lookahead=0).action == action


# (id, movement) pairs that serve as both contexts and actions, so actions
# chain into later contexts; the last one is never logged.
PAIRS = [(-1, ()), (1, ("left", "up")), (2, ("right", "down")), (3, ("up",)),
         (2, ("left", "up")), (9, ("down",))]


def random_explain_log(rng):
    """Several variants over ``PAIRS[:-1]``: some traces empty, some logs
    scoring nowhere, others scoring rarely (so zero-reward layers chain into
    later scores), and at times one context and action logged with two
    rewards."""
    score = rng.choice([0.0, 0.15, 0.4])
    traces = []
    for _ in range(rng.randrange(1, 8)):
        trace = []
        for _ in range(rng.choice([0, 1, 3, 5, 7])):
            context, action = rng.choices(PAIRS[:-1], k=2)
            reward = rng.choice([7, 14]) if rng.random() < score else 0
            trace.append(L(*context, *action, reward))
        traces.append(trace)
    return mklog(traces)


def outcome(query, *args):
    """The query's result, or its exception as (type, message)."""
    try:
        return query(*args)
    except Exception as exc:  # compared against the oracle's, type and text
        return type(exc), str(exc)


def test_indexed_queries_match_the_linear_scan_oracle():
    """On random logs, for every layer (and one out of range on each side),
    every observed and unobserved context and alternative and lookaheads
    -1..3, queried in random order: recommend and why_not give the oracle's
    value or its exception; a repeated query gives the same frozen answer;
    and each lookahead has its own."""
    rng = random.Random(19)
    for _ in range(60):
        view = layered_view(random_explain_log(rng))
        keys = [(layer, context, lookahead)
                for layer in range(0, len(view) + 2)
                for context in PAIRS
                for lookahead in range(-1, 4)]
        rng.shuffle(keys)
        for layer, context, lookahead in keys:
            rec = outcome(recommend, view, layer, context, lookahead)
            assert rec == outcome(oracle_recommend, view, layer, context, lookahead)
            for alternative in PAIRS:
                args = (view, layer, context, alternative, lookahead)
                report = outcome(why_not, *args)
                assert report == outcome(oracle_why_not, *args)
                assert outcome(why_not, *args) == report
                if isinstance(report, WhyNotReport):
                    with pytest.raises(FrozenInstanceError):
                        report.gap = -1
            if isinstance(rec, Recommendation):
                assert recommend(view, layer, context, lookahead) is rec
                with pytest.raises(FrozenInstanceError):
                    rec.reward = -1
                assert all(recommend(view, layer, context, other) is not rec
                           for other in range(4) if other != lookahead)
            else:
                assert outcome(recommend, view, layer, context, lookahead) == rec


class TestExplainerGate:
    def test_fitting_model_allows_queries(self):
        log = mklog(WHITE_CASES)
        explainer = Explainer.from_log(log)
        rec = explainer.recommend(2, (3, ("left", "down")))
        assert rec.reward == 7

    def test_fitting_model_answers_why_not(self):
        explainer = Explainer.from_log(mklog(RED_CASES))
        report = explainer.why_not(2, (3, ("right", "up")), (3, ("right", "up")))
        assert report == why_not(explainer.view, 2, (3, ("right", "up")),
                                 (3, ("right", "up")))
        assert report.recommended == (1, ("left", "up")) and report.gap == 7

    def test_non_fitting_model_refuses(self):
        log = mklog(WHITE_CASES)
        net = tree_to_net(inductive_miner(log))
        # score the model against a log it cannot replay
        other = mklog([("x", "y", "z")])
        report = fitness_metrics(other, net)
        broken = Explainer(log, net, report)
        with pytest.raises(NotFittingError):
            broken.recommend(2, (3, ("left", "down")))
        with pytest.raises(NotFittingError):
            broken.why_not(2, (3, ("left", "down")), (2, ("right", "up")))


class TestContextParsing:
    def test_round_trip_forms(self):
        assert parse_context_string("(3,(left,down))") == (3, ("left", "down"))
        assert parse_context_string("(-1,())") == (-1, ())
        assert parse_context_string("(2,(up))") == (2, ("up",))
        # whitespace may separate tokens
        assert parse_context_string(" ( 3 , ( left , down ) ) ") == (3, ("left", "down"))
        assert parse_context_string("(-1,( ))") == (-1, ())

    def test_malformed(self):
        for text in ("3,(left)", "(3,(upx)", "(3,(up)", "(3,(left,downx)",
                     "(3,(left,,down))", "(3,(left,down)))"):
            with pytest.raises(ValueError) as info:
                parse_context_string(text)
            assert str(info.value) == f"malformed context: {text!r}"
