import math
import random
import re

import pytest

from playmine.episodes import StepRecord, play_episode
from playmine.eventlog import (
    EPISODE_COLUMNS,
    EventLog,
    build_event_log,
    export_episode_table,
    export_log,
    format_label,
    format_movement,
    import_log,
    label_for,
    parse_label,
    parse_movement,
)
from playmine.search import SearchConfig
from helpers import mklog
from oracles import import_episode_table, oracle_export_log_xes

FAST = SearchConfig(iterations=10, simulation_depth=4, minimax_depth=1)


def random_record(rng):
    moves = [("left", "up"), ("right", "down"), ("up",), ("down",), ()]
    return StepRecord(
        last_turn_enemy_piece_id=rng.choice([-1, 1, 2, 3]),
        last_turn_enemy_movement=rng.choice(moves),
        piece_id=rng.randrange(1, 4),
        move=rng.choice(moves[:-1]),
        captured=tuple(rng.sample([1, 2, 3], rng.randrange(0, 3))),
        reward=rng.choice([0, 7, 14]),
    )


def random_log(rng, cases=None):
    cases = cases if cases is not None else rng.randrange(1, 6)
    return build_event_log(
        (cid, [random_record(rng) for _ in range(rng.randrange(1, 8))])
        for cid in range(1, cases + 1)
    )


class TestLabelCodec:
    def test_table_style_row(self):
        record = StepRecord(3, ("right", "up"), 3, ("left", "down"), (2,), 14)
        assert label_for(record) == "((3,(right,up)),(3,(left,down)),14)"

    def test_first_move_row(self):
        record = StepRecord(-1, (), 2, ("left", "down"), (), 0)
        assert label_for(record) == "((-1,()),(2,(left,down)),0)"

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(300):
            rec = random_record(rng)
            label = label_for(rec)
            (lid, lmove), (pid, move), reward = parse_label(label)
            assert (lid, lmove, pid, move, reward) == (
                rec.last_turn_enemy_piece_id, rec.last_turn_enemy_movement,
                rec.piece_id, rec.move, rec.reward)

    def test_distance_feature_round_trip(self):
        for move in (-3, 0, 5, math.inf):
            token = format_movement(move)
            assert parse_movement(token) == move
        label = format_label(2, -1, 3, math.inf, 7)
        (_, lmove), (_, move), _ = parse_label(label)
        assert lmove == -1 and move == math.inf

    def test_malformed_label_rejected(self):
        for label in ("not a label",
                      "((3,(right,up)),(3,(left,down)))",  # no reward
                      "((3,(right,up)),(3,(left,down)),14,0)",  # an extra part
                      "((3,(right,up)),(3,(left,down),14)"):  # one ")" short
            with pytest.raises(ValueError) as info:
                parse_label(label)
            assert str(info.value) == f"malformed label: {label!r}"

    def test_whitespace_between_tokens(self):
        assert parse_label(" ( (3 ,( right, up )) , (3,(left ,down)) , 14 ) ") == (
            (3, ("right", "up")), (3, ("left", "down")), 14)

    @pytest.mark.parametrize("token", ["-inf", "(left down)", "(up", "up", "1.5", ""])
    def test_malformed_movement_rejected(self, token):
        # play never makes -inf: a side left with no piece has no move
        with pytest.raises(ValueError) as info:
            parse_movement(token)
        assert str(info.value) == f"malformed movement: {token!r}"


class TestBuildEventLog:
    def test_maps_steps_to_events_in_order(self):
        rng = random.Random(1)
        steps = [random_record(rng) for _ in range(5)]
        log = build_event_log([(9, steps)])
        assert list(log.cases) == [9]
        assert log.cases[9] == tuple(label_for(s) for s in steps)

    def test_empty_input(self):
        assert build_event_log([]).cases == {}

    def test_case_per_episode(self):
        rng = random.Random(2)
        log = random_log(rng, cases=10)
        assert sorted(log.cases) == list(range(1, 11))
        assert all(log.cases.values())

    def test_duplicate_case_rejected(self):
        rng = random.Random(3)
        steps = [random_record(rng)]
        with pytest.raises(ValueError):
            build_event_log([(1, steps), (1, steps)])


class TestEpisodeTable:
    def test_header_matches_table_one(self, tmp_path):
        path = tmp_path / "red_episode1.csv"
        export_episode_table([], path)
        assert path.read_text().strip() == ",".join(EPISODE_COLUMNS)
        assert EPISODE_COLUMNS == ("last_turn_id", "last_turn_movement",
                                   "piece_id", "move", "captured", "reward")

    def test_round_trip(self, tmp_path):
        rng = random.Random(5)
        trace = [random_record(rng) for _ in range(12)]
        path = tmp_path / "table.csv"
        export_episode_table(trace, path)
        assert import_episode_table(path) == trace

    def test_real_episode_round_trip(self, tmp_path):
        ep = play_episode(FAST, episode_id=1, max_turns=40)
        path = tmp_path / "white_episode1.csv"
        export_episode_table(ep.white_trace, path)
        assert import_episode_table(path) == ep.white_trace

    def test_distance_feature_round_trip(self, tmp_path):
        trace = [
            StepRecord(-1, (), 2, -1, (), 0),
            StepRecord(2, -1, 3, 4, (1,), 7),
            StepRecord(3, 4, 1, math.inf, (2,), 7),
        ]
        path = tmp_path / "bfs.csv"
        export_episode_table(trace, path)
        assert import_episode_table(path) == trace

    def test_write_failure_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            export_episode_table([], tmp_path / "no" / "such" / "dir.csv")

    @pytest.mark.parametrize("text", ["", "task_id,transition\n"], ids=["empty", "wrong"])
    def test_empty_file_or_wrong_header_rejected(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="unexpected episode table header"):
            import_episode_table(path)

    @pytest.mark.parametrize("extra,got", [(None, 0), (",7", 7)], ids=["blank", "long"])
    def test_row_of_wrong_width_rejected(self, tmp_path, extra, got):
        """A blank row or one with extra fields names its file and line."""
        path = tmp_path / "table.csv"
        export_episode_table([StepRecord(-1, (), 2, ("up",), (), 0)] * 2, path)
        lines = path.read_text().splitlines()
        row = "" if extra is None else lines[1] + extra
        path.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=f"table.csv line 3: expected 6 fields, "
                                             f"got {got}$"):
            import_episode_table(path)


class TestLogIO:
    @pytest.mark.parametrize("fmt", ["csv", "xes"])
    def test_round_trip(self, fmt, tmp_path):
        rng = random.Random(6)
        for i in range(100):
            log = random_log(rng)
            path = tmp_path / f"log{i}.{fmt}"
            export_log(log, path, fmt)
            assert import_log(path, fmt) == log

    @pytest.mark.parametrize("fmt", ["csv", "xes"])
    def test_empty_log(self, fmt, tmp_path):
        path = tmp_path / f"empty.{fmt}"
        export_log(EventLog(), path, fmt)
        assert import_log(path, fmt) == EventLog()

    def test_format_inferred_from_extension(self, tmp_path):
        rng = random.Random(7)
        log = random_log(rng)
        for name in ("a.xes", "a.csv"):
            path = tmp_path / name
            export_log(log, path, name.split(".")[1])
            assert import_log(path) == log

    def test_exports_are_deterministic(self, tmp_path):
        rng = random.Random(8)
        log = random_log(rng)
        a, b = tmp_path / "a.xes", tmp_path / "b.xes"
        export_log(log, a, "xes")
        export_log(log, b, "xes")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("text", ["", "case,activity\n1,a\n"], ids=["empty", "wrong"])
    def test_empty_csv_or_wrong_header_rejected(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="unexpected event log header"):
            import_log(path)

    @pytest.mark.parametrize("row,got", [("", 0), ("2,((-1,()),(1,(up)),0)", 6)],
                             ids=["blank", "unquoted-label"])
    def test_csv_row_of_wrong_width_rejected(self, tmp_path, row, got):
        """A blank row, or an unquoted label split into extra fields, names
        its file and line instead of importing a cut label."""
        path = tmp_path / "log.csv"
        export_log(random_log(random.Random(9), cases=2), path, "csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=f"log.csv line 3: expected 2 fields, "
                                             f"got {got}$"):
            import_log(path)

    def test_xes_duplicate_case_id_rejected(self, tmp_path):
        """Two traces with one concept:name are refused, naming the file
        and the id, instead of the second replacing the first."""
        path = tmp_path / "log.xes"
        export_log(mklog([("a",), ("b",)]), path, "xes")
        path.write_text(path.read_text().replace('value="2"', 'value="1"'))
        with pytest.raises(ValueError, match=r"duplicate case id 1 in .*log\.xes$"):
            import_log(path)

    @pytest.mark.parametrize("where", ["trace", "event"])
    def test_xes_name_without_value_rejected(self, tmp_path, where):
        """A concept:name with no value, on a trace or on an event, is
        refused naming the file, instead of int(None) failing or a None
        label reaching the miners."""
        path = tmp_path / "log.xes"
        export_log(mklog([("a",)]), path, "xes")
        value = 'value="1"' if where == "trace" else 'value="a"'
        path.write_text(path.read_text().replace(value, ""))
        with pytest.raises(ValueError, match=r"concept:name without a value in .*log\.xes$"):
            import_log(path)

    @pytest.mark.parametrize("body,error", [
        ('<trace><string key="concept:name" value="1"/>'
         '<event><string key="other" value="a"/></event>'
         '<event><string key="concept:name" value="b"/></event></trace>',
         "event without concept:name"),
        ('<trace><string key="concept:name" value="1"/>'
         '<event><string key="concept:name" value="a"/>'
         '<string key="concept:name" value="b"/></event></trace>',
         "event with more than one concept:name"),
        ('<trace><string key="concept:name" value="2"/>'
         '<event><string key="concept:name" value="b"/></event>'
         '<string key="concept:name" value="3"/></trace>',
         "trace with more than one concept:name"),
    ], ids=["event-without-name", "event-named-twice", "trace-named-twice"])
    def test_xes_trace_or_event_without_one_name_rejected(self, tmp_path, body, error):
        """An event with no concept:name, or a trace or event with two, is
        refused naming the file, instead of the event being dropped or
        split, or the last trace name winning."""
        path = tmp_path / "log.xes"
        path.write_text(f"<log>{body}</log>")
        with pytest.raises(ValueError, match=rf"^{error} in .*log\.xes$"):
            import_log(path)

    @pytest.mark.parametrize("fmt,where", [("csv", r"log\.csv line 3"), ("xes", r"log\.xes")])
    def test_case_id_not_an_integer_rejected(self, tmp_path, fmt, where):
        """A case id that is not an integer names the file (and the CSV
        line) instead of int()'s bare message."""
        path = tmp_path / f"log.{fmt}"
        export_log(mklog([("a",), ("b",)]), path, fmt)
        text = path.read_text()
        path.write_text(text.replace("\n2,", "\nx,") if fmt == "csv"
                        else text.replace('value="2"', 'value="x"'))
        with pytest.raises(ValueError, match=f"case id 'x' is not an integer in .*{where}$"):
            import_log(path)

    @pytest.mark.parametrize("text,error", [
        ("", "no element found: line 1, column 0"),
        ("<log><trace>", "no element found: line 1, column 12"),
        ("task_id,transition\n", "syntax error: line 1, column 0"),
        ("<log></trace></log>", "mismatched tag: line 1, column 7"),
    ], ids=["empty", "truncated", "not-xml", "mismatched"])
    def test_malformed_xes_rejected(self, tmp_path, text, error):
        """ElementTree's parse error becomes a ValueError naming the file."""
        path = tmp_path / "log.xes"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^malformed XES in .*log\.xes: {error}$"):
            import_log(path)

    def test_foreign_xes_extras_are_ignored(self, tmp_path):
        """Another writer's extensions, globals, classifier, log attribute and
        trace and event attributes other than concept:name import as the
        plain log."""
        path = tmp_path / "log.xes"
        path.write_text(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n'
            '  <extension name="Concept" prefix="concept"'
            ' uri="http://www.xes-standard.org/concept.xesext"/>\n'
            '  <global scope="trace"><string key="concept:name" value="x"/></global>\n'
            '  <global scope="event"><string key="concept:name" value="x"/></global>\n'
            '  <classifier name="Activity" keys="concept:name"/>\n'
            '  <string key="concept:name" value="the whole log"/>\n'
            '  <trace>\n'
            '    <string key="concept:name" value="1"/>\n'
            '    <string key="side" value="red"/>\n'
            '    <event>\n'
            '      <string key="concept:name" value="a"/>\n'
            '      <date key="time:timestamp" value="2025-01-01T00:00:00.000+00:00"/>\n'
            '      <int key="turn" value="1"/>\n'
            '    </event>\n'
            '    <event><string key="concept:name" value="b"/></event>\n'
            '  </trace>\n'
            '  <trace><int key="turns" value="0"/><string key="concept:name" value="2"/></trace>\n'
            '</log>\n')
        assert import_log(path) == EventLog({1: ("a", "b"), 2: ()})

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_log(EventLog(), tmp_path / "x.bin", "parquet")


# Every character an XES attribute value escapes, and some it must keep.
XES_CHARS = "&<>\"'\n\r\t" + "é漢\U0001F600" + "a(,) "


def random_text_log(rng) -> EventLog:
    """A log whose labels mix ``XES_CHARS``, with empty traces, empty labels
    and negative case ids."""
    cases = {}
    for _ in range(rng.randrange(0, 6)):
        cases[rng.randrange(-20, 20)] = tuple(
            "".join(rng.choices(XES_CHARS, k=rng.randrange(0, 9)))
            for _ in range(rng.randrange(0, 5)))
    return EventLog(cases)


class TestXesWriter:
    def test_shape(self, tmp_path):
        path = tmp_path / "log.xes"
        export_log(EventLog({-1: (), 2: ("a&b",)}), path, "xes")
        assert path.read_text(encoding="utf-8") == "\n".join([
            "<?xml version='1.0' encoding='utf-8'?>",
            '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
            "  <trace>",
            '    <string key="concept:name" value="-1" />',
            "  </trace>",
            "  <trace>",
            '    <string key="concept:name" value="2" />',
            "    <event>",
            '      <string key="concept:name" value="a&amp;b" />',
            "    </event>",
            "  </trace>",
            "</log>"])

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800",
                                      "\udfff", "\ufffe", "\uffff"])
    def test_label_xml_cannot_carry_rejected(self, tmp_path, char):
        """A label holding a character XML 1.0 forbids is refused, naming the
        file and the label, before the file is opened; the file that would
        not parse back is never written."""
        path = tmp_path / "ctl.xes"
        label = f"a{char}b"
        with pytest.raises(ValueError, match=rf"^cannot write .*ctl\.xes: label "
                                             rf"{re.escape(repr(label))} holds"):
            export_log(EventLog({1: ("ok",), 2: (label,)}), path, "xes")
        assert not path.exists()

    def test_bytes_match_reference_writer_and_round_trip(self, tmp_path):
        """The text writer writes ElementTree's bytes: every escaped
        character, non-ASCII and astral labels, empty traces, negative ids
        and the empty log (``<log ... />``)."""
        rng = random.Random(11)
        logs = [EventLog(), EventLog({-3: (), 0: (XES_CHARS, "")})]
        logs += [random_text_log(rng) for _ in range(200)]
        logs += [random_log(rng) for _ in range(20)]
        for i, log in enumerate(logs):
            ours, ref = tmp_path / f"{i}.xes", tmp_path / f"{i}.ref.xes"
            export_log(log, ours, "xes")
            oracle_export_log_xes(log, ref)
            assert ours.read_bytes() == ref.read_bytes(), log
            assert import_log(ours) == log
