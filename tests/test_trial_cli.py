import json
from collections import Counter

import pytest

from playmine.cli import export_dot, main
from playmine.discovery import act, seq, tree_to_net
from playmine.eventlog import import_log
from playmine.petri import PetriNet, Transition, load_net
from playmine.trial import TrialSpec, run_trial


def tiny_spec(**overrides):
    base = dict(trial=1, sweep_values=(5, 8), iterations=0, simulation_depth=3,
                minimax_depth=1, episodes=2, seed=7, max_turns=30)
    base.update(overrides)
    return TrialSpec(**base)


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


@pytest.fixture(scope="module")
def trial_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("trial")
    summary = run_trial(tiny_spec(), out)
    return out, summary


class TestRunTrial:
    def test_report_count(self, trial_out):
        # 2 cells x 2 colors x 2 miners; alpha nets may be unsound on real
        # logs, in which case the failure is recorded and the run continues
        _, summary = trial_out
        reports = [k for cell in summary.cells for k in cell.classifications]
        errors = [e for cell in summary.cells for e in cell.errors]
        assert len(reports) + len(errors) == 2 * 2 * 2
        assert all("alpha" in e for e in errors)

    def test_inductive_models_always_fit(self, trial_out):
        _, summary = trial_out
        for cell in summary.cells:
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
        out, _ = trial_out
        rerun = tmp_path / "rerun"
        run_trial(tiny_spec(), rerun)
        for rel in ("iterations=5/red_eventlog.csv", "iterations=8/white_eventlog.xes",
                    "iterations=5/red_episode1.csv"):
            assert (rerun / rel).read_bytes() == (out / rel).read_bytes()

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
        export_dot(net, path)
        text = path.read_text()
        assert text.count("shape=circle") == 2
        assert text.count("shape=box") == 1
        assert text.count("->") == 2

    def test_sequence_chain(self, tmp_path):
        net = tree_to_net(seq(act("A"), act("B")))
        path = tmp_path / "seq.dot"
        export_dot(net, path)
        text = path.read_text()
        assert text.count("shape=circle") == 3
        assert '"t0" -> ' in text

    def test_silent_transitions_filled(self, tmp_path):
        net = PetriNet(["p0", "p1"], [Transition("t0", None)],
                       [("p0", "t0"), ("t0", "p1")],
                       Counter({"p0": 1}), Counter({"p1": 1}))
        export_dot(net, tmp_path / "tau.dot")
        assert "style=filled" in (tmp_path / "tau.dot").read_text()

    def test_output_stable(self, tmp_path):
        net = tree_to_net(seq(act("A"), act("B")))
        export_dot(net, tmp_path / "a.dot")
        export_dot(net, tmp_path / "b.dot")
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
        assert load_net(net_path).has_unique_source_and_sink()

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

    @pytest.mark.parametrize("layer,context,message", [
        ("0", "(-1,())", "layer 0 out of range 1..2"),
        ("1", "(3,(up))", "no transition with context (3, ('up',)) observed at layer 1"),
        ("1", "garbage", "malformed context: 'garbage'"),
    ], ids=["layer", "unobserved", "malformed"])
    def test_explain_user_error_is_one_line(self, tmp_path, capsys, layer, context, message):
        """A layer, context or action the log does not hold: one line on
        stderr and exit code 1, no traceback."""
        from playmine.eventlog import export_log, format_label
        from helpers import mklog
        log_path = tmp_path / "log.csv"
        trace = (format_label(-1, (), 1, ("left", "up"), 0),
                 format_label(2, ("right",), 1, ("left",), 7))
        export_log(mklog([trace]), log_path, "csv")
        rc = main(["explain", "--log", str(log_path), "--layer", layer,
                   "--context", context])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"cannot explain: {message}\n"

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
        from playmine.eventlog import export_log
        from playmine.petri import PetriNet, save_net
        from helpers import mklog
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
