import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

import playmine
from playmine import cli, trial
from playmine.cli import build_parser, main
from playmine.discovery import act, seq, tree_to_net
from playmine.board import RewardConfig
from playmine.episodes import MAX_TURNS_DEFAULT, EpisodeResult
from playmine.eventlog import export_log, format_label, import_log
from playmine.explain import LOOKAHEAD_DEFAULT
from playmine.petri import PetriNet, Transition, load_net, save_dot
from playmine.search import SearchConfig
from playmine.trial import TrialSpec, run_trial
from helpers import mklog
from oracles import has_unique_source_and_sink


TINY = dict(trial=1, sweep_values=(5, 8), iterations=0, simulation_depth=3,
            minimax_depth=1, episodes=2, seed=7, max_turns=30)


def tiny_spec(**overrides):
    return TrialSpec(**{**TINY, **overrides})


def saved_net(**fields):
    """The text of a saved one-transition net from p0 to p1, with ``fields``
    of its JSON replaced."""
    payload = {"places": ["p0", "p1"], "transitions": [["t0", "A"]],
               "arcs": [["p0", "t0"], ["t0", "p1"]],
               "initial_marking": {"p0": 1}, "final_marking": {"p1": 1}}
    return json.dumps({**payload, **fields})


# saved nets that PetriNet refuses, each with its message
BAD_NETS = {
    # 1.5 tokens kept fitness_metrics running: 0.5 and -0.5 stay truthy
    "fractional-tokens": (saved_net(initial_marking={"p0": 1.5}),
                          "place p0 holds 1.5 tokens, not an int >= 0"),
    "negative-tokens": (saved_net(initial_marking={"p0": 1, "p1": -1}),
                        "place p1 holds -1 tokens, not an int >= 0"),
    "duplicate-transition": (saved_net(transitions=[["t0", "A"], ["t0", "B"]]),
                             "two transitions are named t0"),
    "repeated-transition": (saved_net(transitions=[["t0", "A"], ["t0", "A"]]),
                            "two transitions are named t0"),
    "label-not-string": (saved_net(transitions=[["t0", 5]]),
                         "transition t0 has label 5, not a string"),
}


class TestTrialSpec:
    def test_paper_profiles_match_published_sweeps(self):
        t1 = TrialSpec.paper(1)
        assert t1.sweep_values == (1000, 2000, 3000)
        assert t1.simulation_depth == 30 and t1.minimax_depth == 3
        t2 = TrialSpec.paper(2)
        assert t2.sweep_values == (10, 20, 30)
        assert t2.iterations == 3000 and t2.minimax_depth == 3
        t3 = TrialSpec.paper(3)
        assert t3.sweep_values == (1, 2, 3)
        assert t3.iterations == 3000 and t3.simulation_depth == 30
        assert t1.episodes == t2.episodes == t3.episodes == 100

    def test_smoke_profile_is_desk_scale(self):
        spec = TrialSpec.smoke(1)
        assert spec.episodes == 10
        assert max(spec.sweep_values) <= 100

    def test_cell_config_injects_swept_value(self):
        spec = tiny_spec()
        cfg = spec.cell_config(8)
        assert cfg.iterations == 8
        assert cfg.simulation_depth == 3

    def test_invalid_trial_number(self):
        with pytest.raises(ValueError):
            tiny_spec(trial=4)

    def test_bad_sweep_value_fails_before_any_file(self, tmp_path):
        """Every cell's config is built with the spec: a bad sweep value
        used to fail only once the cells before it had run and been
        written."""
        out = tmp_path / "trial"
        with pytest.raises(ValueError, match="^iterations must be >= 1$"):
            run_trial(tiny_spec(sweep_values=(5, 0)), out)
        assert not out.exists()

    @pytest.mark.parametrize("field", ["episodes", "workers", "pieces_per_side", "max_turns"])
    def test_non_integer_count_is_refused_by_name(self, field):
        """Accepted, ``episodes=2.5`` failed only in ``range``, naming no
        field; ``True`` is a count, as in the kernel."""
        with pytest.raises(TypeError, match=f"^{field} must be an int, not float$"):
            TrialSpec.smoke(1, **{field: 2.5})
        assert getattr(TrialSpec.smoke(1, **{field: True}), field) == 1

    def test_import_leaves_the_process_pool_unloaded(self):
        """Only a batch on several workers needs the process pool, so
        importing playmine does not import it."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(playmine.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, playmine; "
                "print('concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["False"]


@pytest.fixture(scope="module")
def trial_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("trial")
    return out, run_trial(tiny_spec(), out)


class TestRunTrial:
    def test_report_count(self, trial_out):
        # 2 cells x 2 colors x 2 miners; alpha nets may be unsound on real
        # logs, in which case the failure is recorded and the run continues
        _, cells = trial_out
        reports = [k for cell in cells for k in cell.classifications]
        errors = [e for cell in cells for e in cell.errors]
        assert len(reports) + len(errors) == 2 * 2 * 2
        assert all("alpha" in e for e in errors)

    def test_inductive_models_always_fit(self, trial_out):
        _, cells = trial_out
        for cell in cells:
            assert cell.classifications["red-inductive"] == "fitting"
            assert cell.classifications["white-inductive"] == "fitting"

    def test_outputs_exist(self, trial_out):
        out, _ = trial_out
        cell = out / "iterations=5"
        for name in ("red_episode1.csv", "white_episode2.csv",
                     "red_eventlog.xes", "white_eventlog.csv",
                     "red-inductive.json", "red-inductive.dot",
                     "global_statistics.csv"):
            assert (cell / name).exists(), name
        assert (out / "summary.json").exists()
        payload = json.loads((out / "summary.json").read_text())
        assert [c["value"] for c in payload["cells"]] == [5, 8]

    def test_event_logs_have_one_case_per_episode(self, trial_out):
        out, _ = trial_out
        log = import_log(out / "iterations=5" / "red_eventlog.xes")
        assert len(log) == 2

    def test_rerun_is_byte_identical(self, trial_out, tmp_path):
        """A rerun in a new interpreter with another hash seed writes every
        file of both cells and summary.json byte for byte, apart from the
        two wall-time rows of global_statistics.csv."""
        out, _ = trial_out
        rerun = tmp_path / "rerun"
        env = dict(os.environ,
                   PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
                   PYTHONPATH=os.pathsep.join([str(Path(playmine.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        code = ("from playmine.trial import TrialSpec, run_trial; "
                f"run_trial(TrialSpec(**{TINY!r}), {str(rerun)!r})")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

        def files(root):
            return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

        def untimed(data):
            return [line for line in data.splitlines()
                    if not line.startswith((b"Calc. Time", b"Pre-process time"))]

        assert files(rerun) == files(out)
        assert {rel.parts[0] for rel in files(out)} == {
            "summary.json", "iterations=5", "iterations=8"}
        for rel in files(out):
            got, want = (rerun / rel).read_bytes(), (out / rel).read_bytes()
            if rel.name == "global_statistics.csv":
                got, want = untimed(got), untimed(want)
            assert got == want, rel

    def test_cell_independence(self, trial_out, tmp_path):
        out, _ = trial_out
        solo = tmp_path / "solo"
        run_trial(tiny_spec(sweep_values=(5,)), solo)
        for name in ("red_eventlog.csv", "white_eventlog.csv", "red_episode1.csv"):
            assert ((solo / "iterations=5" / name).read_bytes()
                    == (out / "iterations=5" / name).read_bytes())

    def test_workers_do_not_change_results(self, trial_out, tmp_path):
        out, _ = trial_out
        parallel = tmp_path / "par"
        run_trial(tiny_spec(workers=2), parallel)
        rel = "iterations=8/red_eventlog.csv"
        assert (parallel / rel).read_bytes() == (out / rel).read_bytes()


class TestExportDot:
    def test_single_transition_net(self, tmp_path):
        net = tree_to_net(act("A"))
        path = tmp_path / "net.dot"
        save_dot(net, path)
        text = path.read_text()
        assert text.count("shape=circle") == 2
        assert text.count("shape=box") == 1
        assert text.count("->") == 2

    def test_sequence_chain(self, tmp_path):
        net = tree_to_net(seq(act("A"), act("B")))
        path = tmp_path / "seq.dot"
        save_dot(net, path)
        text = path.read_text()
        assert text.count("shape=circle") == 3
        assert '"t0" -> ' in text

    def test_silent_transitions_filled(self, tmp_path):
        net = PetriNet(["p0", "p1"], [Transition("t0", None)],
                       [("p0", "t0"), ("t0", "p1")],
                       Counter({"p0": 1}), Counter({"p1": 1}))
        save_dot(net, tmp_path / "tau.dot")
        assert "style=filled" in (tmp_path / "tau.dot").read_text()

    def test_output_stable(self, tmp_path):
        net = tree_to_net(seq(act("A"), act("B")))
        save_dot(net, tmp_path / "a.dot")
        save_dot(net, tmp_path / "b.dot")
        assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()


class TestCli:
    def test_play_mine_check_render_pipeline(self, tmp_path, capsys):
        out = tmp_path / "play"
        rc = main(["play", "--episodes", "2", "--iterations", "8",
                   "--sim-depth", "3", "--minimax-depth", "1", "--max-turns",
                   "30", "--seed", "3", "--out", str(out), "--format", "xes"])
        assert rc == 0
        log_path = out / "red_eventlog.xes"
        assert log_path.exists()
        assert (out / "red_episode1.csv").exists()

        net_path = tmp_path / "net.json"
        rc = main(["mine", "--log", str(log_path), "--miner", "inductive",
                   "--out", str(net_path)])
        assert rc == 0
        assert has_unique_source_and_sink(load_net(net_path))

        report_path = tmp_path / "report.csv"
        capsys.readouterr()
        rc = main(["check", "--log", str(log_path), "--net", str(net_path),
                   "--out", str(report_path)])
        assert rc == 0
        # play -> mine(inductive) -> check always lands on a fitting model
        assert "classification:     fitting" in capsys.readouterr().out
        assert "Trace Fitness" in report_path.read_text()

        dot_path = tmp_path / "net.dot"
        rc = main(["render", "--net", str(net_path), "--out", str(dot_path)])
        assert rc == 0
        assert dot_path.read_text().startswith("digraph")

    def test_play_workers_give_identical_files(self, tmp_path):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            rc = main(["play", "--episodes", "3", "--iterations", "6",
                       "--sim-depth", "3", "--minimax-depth", "0", "--max-turns",
                       "20", "--seed", "5", "--workers", workers, "--out", str(out)])
            assert rc == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outs[0]) == 3 * 2 + 2
        assert outs[0] == outs[1]

    def test_explain_command(self, tmp_path, capsys):
        out = tmp_path / "play"
        main(["play", "--episodes", "2", "--iterations", "8", "--sim-depth", "3",
              "--minimax-depth", "1", "--max-turns", "30", "--seed", "3",
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["explain", "--log", str(out / "red_eventlog.csv"),
                   "--layer", "1", "--context", "(-1,())"])
        assert rc == 0
        assert "Recommendation" in capsys.readouterr().out

    @pytest.mark.parametrize("layer,context,message,extra", [
        ("0", "(-1,())", "layer 0 out of range 1..2", ()),
        ("1", "(3,(up))", "no transition with context (3, ('up',)) observed at layer 1", ()),
        ("1", "garbage", "malformed context: 'garbage'", ()),
        # not the observed (-1,()), though it starts like it
        ("1", "(-1,(x)", "malformed context: '(-1,(x)'", ()),
        ("1", "(-1,())", "lookahead must be >= 0, got -1", ("--lookahead", "-1")),
    ], ids=["layer", "unobserved", "malformed", "malformed-prefix", "lookahead"])
    def test_explain_user_error_is_one_line(self, tmp_path, capsys, layer, context, message,
                                            extra):
        """A layer, context or action the log does not hold, or a negative
        lookahead: one line on stderr and exit code 1, no traceback."""
        log_path = tmp_path / "log.csv"
        trace = (format_label(-1, (), 1, ("left", "up"), 0),
                 format_label(2, ("right",), 1, ("left",), 7))
        export_log(mklog([trace]), log_path, "csv")
        rc = main(["explain", "--log", str(log_path), "--layer", layer,
                   "--context", context, *extra])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"cannot explain: {message}\n"

    def test_explain_malformed_label_is_one_line(self, tmp_path, capsys):
        log_path = tmp_path / "log.csv"
        label = "((-1,()),(1,(left,up)))"  # no reward
        export_log(mklog([(label,)]), log_path, "csv")
        rc = main(["explain", "--log", str(log_path), "--layer", "1", "--context", "(-1,())"])
        assert rc == 1
        assert capsys.readouterr().err == f"cannot explain: malformed label: {label!r}\n"

    def test_explain_why_not_with_json(self, tmp_path, capsys):
        """--alternative adds the why-not line; --json then prints both
        answers as one JSON line."""
        log_path = tmp_path / "log.csv"
        first = (format_label(-1, (), 1, ("left", "up"), 0),
                 format_label(2, ("right",), 1, ("left",), 7))
        second = (format_label(-1, (), 2, ("left", "up"), 0),
                  format_label(2, ("right",), 3, ("up",), 0))
        export_log(mklog([first, second]), log_path, "csv")
        rc = main(["explain", "--log", str(log_path), "--layer", "2", "--context", "(2,(right))",
                   "--alternative", "(3,(up))", "--json"])
        assert rc == 0
        rec, why, payload = capsys.readouterr().out.splitlines()
        assert rec == ("Recommendation: select piece 1 and move it (left), because it earns "
                       "7 points right away by capturing or crowning.")
        assert why == ("Not recommended: piece 3 moving (up) earns 0 points versus 7 for the "
                       "recommended action. It also chains into no scoring transition nearby.")
        assert json.loads(payload) == {
            "layer": 2,
            "context": [2, ["right"]],
            "recommendation": {"action": [1, ["left"]], "reward": 7, "kind": "immediate-reward",
                               "ranked": [[[1, ["left"]], 7], [[3, ["up"]], 0]]},
            "why_not": {"alternative": [3, ["up"]], "reward": 0, "gap": 7},
        }

    def test_trial_command(self, tmp_path, capsys):
        out = tmp_path / "trial"
        rc = main(["trial", "--trial", "3", "--profile", "smoke",
                   "--episodes", "1", "--max-turns", "20",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "minimax_depth=1" in text
        assert (out / "summary.json").exists()

    def test_check_reports_unsound_net(self, tmp_path, capsys):
        from playmine.petri import save_net
        net = PetriNet(
            places=["p0", "p_dead"],
            transitions=[Transition("t0", "A")],
            arcs=[("p0", "t0"), ("t0", "p0")],
            initial_marking=Counter({"p0": 1}),
            final_marking=Counter({"p_dead": 1}),
        )
        net_path = tmp_path / "dead.json"
        save_net(net, net_path)
        log_path = tmp_path / "log.csv"
        export_log(mklog([("A",)]), log_path, "csv")
        rc = main(["check", "--log", str(log_path), "--net", str(net_path)])
        assert rc == 1
        assert "cannot replay" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,files,message", [
        (["mine", "--log", "empty.csv", "--out", "net.json"],
         {"empty.csv": "task_id,transition\n"},
         "cannot mine: inductive_miner requires a non-empty log"),
        (["check", "--log", "short.csv", "--net", "net.json"],
         {"short.csv": "task_id,transition\n1\n"},
         "cannot replay: short.csv line 2: expected 2 fields, got 1"),
        (["explain", "--log", "missing.csv", "--layer", "1", "--context", "(-1,())"],
         {}, "cannot explain: [Errno 2] No such file or directory: 'missing.csv'"),
        (["render", "--net", "net.json", "--out", "net.dot"],
         {"net.json": '{"places": []}'}, "cannot render: not a saved net: KeyError('transitions')"),
        (["mine", "--log", "twice.xes", "--out", "net.json"],
         {"twice.xes": '<log><trace><string key="concept:name" value="1"/></trace>'
                       '<trace><string key="concept:name" value="1"/></trace></log>'},
         "cannot mine: duplicate case id 1 in twice.xes"),
        (["mine", "--log", "noid.xes", "--out", "net.json"],
         {"noid.xes": '<log><trace><string key="concept:name"/></trace></log>'},
         "cannot mine: concept:name without a value in noid.xes"),
        (["check", "--log", "nolabel.xes", "--net", "net.json"],
         {"nolabel.xes": '<log><trace><string key="concept:name" value="1"/>'
                         '<event><string key="concept:name"/></event></trace></log>'},
         "cannot replay: concept:name without a value in nolabel.xes"),
        (["check", "--log", "other.xes", "--net", "net.json"],
         {"other.xes": '<log><trace><string key="concept:name" value="1"/>'
                       '<event><string key="other" value="a"/></event></trace></log>'},
         "cannot replay: event without concept:name in other.xes"),
        (["mine", "--log", "renamed.xes", "--out", "net.json"],
         {"renamed.xes": '<log><trace><string key="concept:name" value="2"/>'
                         '<string key="concept:name" value="3"/></trace></log>'},
         "cannot mine: trace with more than one concept:name in renamed.xes"),
        (["mine", "--log", "badid.csv", "--out", "net.json"],
         {"badid.csv": "task_id,transition\nx,a\n"},
         "cannot mine: case id 'x' is not an integer in badid.csv line 2"),
        (["explain", "--log", "badid.csv", "--layer", "1", "--context", "(-1,())"],
         {"badid.csv": "task_id,transition\n1,a\n1.5,b\n"},
         "cannot explain: case id '1.5' is not an integer in badid.csv line 3"),
        (["mine", "--log", "badid.xes", "--out", "net.json"],
         {"badid.xes": '<log><trace><string key="concept:name" value="x"/></trace></log>'},
         "cannot mine: case id 'x' is not an integer in badid.xes"),
        (["mine", "--log", "cut.xes", "--out", "net.json"],
         {"cut.xes": "<log><trace>"},
         "cannot mine: malformed XES in cut.xes: no element found: line 1, column 12"),
        (["check", "--log", "cut.xes", "--net", "net.json"],
         {"cut.xes": "<log><trace>"},
         "cannot replay: malformed XES in cut.xes: no element found: line 1, column 12"),
    ], ids=["mine-empty-log", "check-short-row", "explain-missing-log", "render-malformed-net",
            "mine-duplicate-xes-case", "mine-xes-case-without-id",
            "check-xes-event-without-label", "check-xes-event-without-name",
            "mine-xes-trace-named-twice", "mine-csv-case-id-not-int",
            "explain-csv-case-id-not-int", "mine-xes-case-id-not-int", "mine-malformed-xes",
            "check-malformed-xes"])
    def test_bad_input_file_is_one_line(self, tmp_path, monkeypatch, capsys, argv, files,
                                        message):
        """A missing, empty or malformed log or net: one line on stderr and
        exit code 1, no traceback."""
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("name", BAD_NETS)
    def test_bad_saved_net_is_refused(self, tmp_path, monkeypatch, capsys, name):
        """A saved net that no PetriNet can be: ``load_net`` raises
        ValueError, and ``playmine check`` prints one line and exits 1."""
        text, message = BAD_NETS[name]
        monkeypatch.chdir(tmp_path)
        Path("net.json").write_text(text)
        export_log(mklog([("A",)]), "log.csv", "csv")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_net("net.json")
        assert main(["check", "--log", "log.csv", "--net", "net.json"]) == 1
        assert capsys.readouterr().err == f"cannot replay: {message}\n"

    def test_bfs_feature_flag(self, tmp_path):
        out = tmp_path / "bfs"
        rc = main(["play", "--episodes", "1", "--iterations", "6",
                   "--sim-depth", "2", "--minimax-depth", "1", "--max-turns",
                   "10", "--bfs-feature", "--out", str(out)])
        assert rc == 0
        table = (out / "red_episode1.csv").read_text().splitlines()
        move_cell = table[1].split(",")[3]
        int(move_cell)  # distance change, not a direction tuple

    def test_alpha_miner_via_cli(self, tmp_path):
        out = tmp_path / "play"
        main(["play", "--episodes", "1", "--iterations", "6", "--sim-depth", "2",
              "--minimax-depth", "1", "--max-turns", "30", "--out", str(out)])
        net_path = tmp_path / "alpha.json"
        dot_path = tmp_path / "alpha.dot"
        rc = main(["mine", "--log", str(out / "white_eventlog.csv"),
                   "--miner", "alpha", "--out", str(net_path),
                   "--dot", str(dot_path)])
        assert rc == 0
        assert dot_path.exists()


# (argv tokens, where the value lands, expected value): the path names the
# called function, then its parameter, then attributes of the argument
GAME_OPTIONS = {
    "play": [
        (("--iterations", "7"), "run_episodes.base_cfg.iterations", 7),
        (("--sim-depth", "4"), "run_episodes.base_cfg.simulation_depth", 4),
        (("--minimax-depth", "2"), "run_episodes.base_cfg.minimax_depth", 2),
        (("--episodes", "3"), "run_episodes.episodes", 3),
        (("--pieces", "5"), "run_episodes.pieces", 5),
        (("--seed", "9"), "run_episodes.seed_key", (9, "play")),
        (("--workers", "2"), "run_episodes.workers", 2),
        (("--no-forced-capture",), "run_episodes.base_cfg.reward.forced_capture", False),
        (("--reward-capture", "3"), "run_episodes.base_cfg.reward.capture_points", 3),
        (("--reward-crown", "4"), "run_episodes.base_cfg.reward.crown_points", 4),
        (("--pruning",), "run_episodes.base_cfg.pruning_enabled", True),
        (("--bfs-feature",), "run_episodes.bfs_feature", True),
        (("--max-turns", "50"), "run_episodes.max_turns", 50),
        (("--format", "xes"), "episode_logs.formats", ("xes",)),
        (("--out", "other"), "episode_logs.out_dir", Path("other")),
    ],
    "trial": [
        (("--episodes", "3"), "run_trial.spec.episodes", 3),
        (("--pieces", "5"), "run_trial.spec.pieces_per_side", 5),
        (("--seed", "9"), "run_trial.spec.seed", 9),
        (("--workers", "2"), "run_trial.spec.workers", 2),
        (("--no-forced-capture",), "run_trial.spec.reward.forced_capture", False),
        (("--reward-capture", "3"), "run_trial.spec.reward.capture_points", 3),
        (("--reward-crown", "4"), "run_trial.spec.reward.crown_points", 4),
        (("--pruning",), "run_trial.spec.pruning_enabled", True),
        (("--bfs-feature",), "run_trial.spec.bfs_feature", True),
        (("--max-turns", "50"), "run_trial.spec.max_turns", 50),
        (("--trial", "3"), "run_trial.spec.trial", 3),
        (("--profile", "paper"), "run_trial.spec", TrialSpec.paper(1)),
        (("--out", "other"), "run_trial.out_dir", "other"),
    ],
}
BASE_ARGV = {"play": ["play", "--out", "base"],
             "trial": ["trial", "--trial", "1", "--out", "base"]}
PLAYED = [EpisodeResult(1, [], [], None, 0)]


def _record_calls(monkeypatch):
    """Replaces what ``play`` and ``trial`` call with recorders; returns a
    dict of each call's arguments by parameter name, under its function."""
    calls = {}

    def recorder(fn, result):
        def record(*args, **kwargs):
            calls[fn.__name__] = inspect.signature(fn).bind(*args, **kwargs).arguments
            return result()
        return record

    monkeypatch.setattr(cli, "run_episodes", recorder(trial.run_episodes, lambda: PLAYED))
    monkeypatch.setattr(cli, "episode_logs", recorder(trial.episode_logs, dict))
    monkeypatch.setattr(cli, "run_trial", recorder(
        trial.run_trial, list))
    return calls


def _subparser(command):
    return build_parser()._subparsers._group_actions[0].choices[command]


class TestCliOptions:
    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        play = parser.parse_args(BASE_ARGV["play"])
        trial_args = parser.parse_args(BASE_ARGV["trial"])
        explain = parser.parse_args(["explain", "--log", "l", "--layer", "1", "--context", "c"])
        search, reward = SearchConfig(), RewardConfig()
        spec = {f.name: f.default for f in dataclasses.fields(TrialSpec)}
        assert (play.iterations, play.sim_depth, play.minimax_depth) == (
            search.iterations, search.simulation_depth, search.minimax_depth)
        for args in (play, trial_args):
            assert (args.reward_capture, args.reward_crown, args.forced_capture) == (
                reward.capture_points, reward.crown_points, reward.forced_capture)
            assert (args.seed, args.workers, args.pieces) == (
                spec["seed"], spec["workers"], spec["pieces_per_side"])
            assert args.max_turns == spec["max_turns"] == MAX_TURNS_DEFAULT
        assert explain.lookahead == LOOKAHEAD_DEFAULT
        # the CLI's own: play's batch size, and trial's None for the profile's
        assert (play.episodes, trial_args.episodes) == (10, None)

    @pytest.mark.parametrize(
        "command,tokens,path,expected",
        [(command, *row) for command, rows in GAME_OPTIONS.items() for row in rows],
        ids=[f"{command} {' '.join(row[0])}" for command, rows in GAME_OPTIONS.items()
             for row in rows])
    def test_option_reaches_what_it_configures(self, tmp_path, monkeypatch, command, tokens,
                                               path, expected):
        monkeypatch.chdir(tmp_path)  # --out is relative
        calls = _record_calls(monkeypatch)
        assert main(BASE_ARGV[command] + list(tokens)) == 0
        fn, param, *attrs = path.split(".")
        value = calls[fn][param]
        assert (attrgetter(".".join(attrs))(value) if attrs else value) == expected
        if command == "play":  # the writer gets the episodes that were played
            assert calls["episode_logs"]["episodes"] is PLAYED

    @pytest.mark.parametrize("command", GAME_OPTIONS)
    def test_every_option_is_in_the_table(self, command):
        sub = _subparser(command)
        in_table = {sub._option_string_actions[tokens[0]].dest
                    for tokens, _, _ in GAME_OPTIONS[command]}
        accepted = {a.dest for a in sub._actions if a.option_strings} - {"help"}
        assert in_table == accepted

    @pytest.mark.parametrize("flag", ["--iterations", "--sim-depth", "--minimax-depth"])
    def test_trial_takes_its_depths_from_the_profile(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["trial", "--trial", "1", "--out", str(tmp_path), flag, "5"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["play", "--minimax-depth", "65"], "depths must be >= 0, the minimax depth <= 64"),
        (["play", "--iterations", "0"], "iterations must be >= 1"),
        (["play", "--episodes", "0"], "episodes and workers must be >= 1"),
        (["play", "--workers", "0"], "episodes and workers must be >= 1"),
        (["trial", "--trial", "1", "--episodes", "0"], "episodes and workers must be >= 1"),
        (["trial", "--trial", "1", "--workers", "0"], "episodes and workers must be >= 1"),
        (["trial", "--trial", "1", "--reward-crown", "-1"],
         "reward points must be non-negative"),
        (["play", "--pieces", "13"], "pieces_per_side must be between 1 and 12"),
        (["trial", "--trial", "1", "--pieces", "0"], "pieces_per_side must be between 1 and 12"),
        (["play", "--reward-capture", "2147483648"], "reward points must be <= 2147483647"),
        (["trial", "--trial", "1", "--reward-crown", "2147483648"],
         "reward points must be <= 2147483647"),
        (["play", "--max-turns", "-5"], "max_turns must be >= 1"),
        (["trial", "--trial", "1", "--max-turns", "0"], "max_turns must be >= 1"),
    ], ids=["minimax-depth", "iterations", "play-episodes", "play-workers",
            "trial-episodes", "trial-workers", "trial-reward", "play-pieces", "trial-pieces",
            "play-reward-above", "trial-reward-above", "play-max-turns", "trial-max-turns"])
    def test_bad_setting_is_refused_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                                       argv, message):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(trial, "play_episode", no_episode)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"playmine {argv[0]}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["play"], ["trial", "--trial", "1"]],
                             ids=["play", "trial"])
    def test_out_naming_a_file_is_refused_before_any_episode(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(trial, "play_episode", no_episode)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert main(argv + ["--out", str(afile)]) == 2
        assert capsys.readouterr().err == (f"playmine {argv[0]}: cannot use --out {afile}: "
                                           "File exists\n")
        assert afile.read_text() == "kept"

    def test_cell_error_is_reported_once(self, tmp_path, capsys):
        """At these settings the 100-iteration cell's white alpha net is
        unsound; stderr names that error once, with its cell."""
        out = tmp_path / "trial"
        assert main(["trial", "--trial", "1", "--episodes", "1", "--max-turns", "20",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        cells = json.loads((out / "summary.json").read_text())["cells"]
        errors = [(c["value"], e) for c in cells for e in c["errors"]]
        assert (100, "white-alpha: ModelUnsoundError('final marking unreachable; "
                     "cannot align')") in errors
        assert err.splitlines() == [f"  error in iterations={value}: {e}"
                                    for value, e in errors]
