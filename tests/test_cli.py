import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tmlwb import cli
from tmlwb.cli import (
    Command, Session, execute, main, parse_command, run_commands,
)
from tmlwb.errors import CommandError
from tmlwb.query import Filter
from tmlwb.store import Store

from conftest import FIXTURE_DIR

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
NINES = "9" * 5000  # more digits than int() converts by default (4300)


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture
def session(workspace):
    sess = Session(store=Store())
    run_commands(sess, [f"corpus import {FIXTURE_DIR} as fix", "corpus use fix"],
                 out=io.StringIO())
    return sess


def run(session, lines):
    out = io.StringIO()
    code = run_commands(session, lines, out=out)
    return code, out.getvalue()


class TestParseGrammar:
    def test_check_in_ids(self):
        cmd = parse_command("check consistent in 3")
        assert cmd == Command("check", "run",
                              {"name": "consistent", "targets": ["3"]})

    def test_check_in_many_ids(self):
        cmd = parse_command("check tlink_loop in 165 159 143")
        assert cmd.args["targets"] == ["165", "159", "143"]

    def test_check_in_filename(self):
        cmd = parse_command("check orphans in wsj_0927.tml")
        assert cmd.args == {"name": "orphans", "targets": ["wsj_0927.tml"]}

    def test_check_in_all(self):
        assert parse_command("check split_graph in all").args["targets"] == "all"

    def test_check_browsed_default(self):
        assert parse_command("check tlink_loop").args["targets"] is None

    def test_check_list(self):
        assert parse_command("check list") == Command("check", "list")

    def test_show_state(self):
        cmd = parse_command("show state of tlink signalid")
        q = cmd.args["query"]
        assert (q.report, q.tag, q.field) == ("state", "tlink", "signalid")

    def test_show_state_filtered(self):
        q = parse_command(
            "show state of tlink signalid where reltype is after").args["query"]
        assert q.filter == Filter("reltype", "is", "after")

    def test_show_is_not_filled(self):
        q = parse_command(
            "show distribution of tlink reltype where signalid is not filled"
        ).args["query"]
        assert q.filter == Filter("signalid", "unfilled")

    def test_show_is_empty(self):
        q = parse_command(
            "show list of tlink origin where origin is empty").args["query"]
        assert q.filter == Filter("origin", "unfilled")

    def test_show_as_tex(self):
        q = parse_command("show distribution of tlink reltype as tex").args["query"]
        assert q.fmt == "tex"

    def test_show_by_and_min_freq(self):
        q = parse_command(
            "show distribution of event pos by document min-freq 5").args["query"]
        assert q.granularity == "document"
        assert q.min_freq == 5

    def test_browse_doc(self):
        assert parse_command("browse doc 3") == \
            Command("browse", "doc", {"key": "3"})

    def test_browse_tag_as_timeml(self):
        cmd = parse_command("browse event e1 as timeml")
        assert cmd.args == {"family": "event", "id": "e1", "fmt": "timeml"}

    def test_corpus_import_with_options(self):
        cmd = parse_command("corpus import /data/tb as timebank fold cavat")
        assert cmd.args == {"directory": "/data/tb", "name": "timebank",
                            "fold": "cavat"}

    def test_context(self):
        assert parse_command("context l7") == Command("context", args={"lid": "l7"})

    def test_blank_line(self):
        assert parse_command("   ") is None

    def test_keywords_case_insensitive(self):
        q = parse_command("SHOW Distribution OF tlink reltype").args["query"]
        assert q.report == "distribution"

    @pytest.mark.parametrize("bad", [
        "show of tlink",
        "show histogram of tlink reltype",
        "show distribution tlink reltype",
        "corpus",
        "corpus frobnicate",
        "check consistent in",
        "browse",
        "context",
        "blargh",
        "show distribution of tlink reltype min-freq lots",
        "show distribution of tlink reltype min-freq ²",
        'show list of tlink reltype where reltype is "unclosed',
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(CommandError):
            parse_command(bad)


class TestDocumentedCommandStrings:
    """Every command string quoted in the interface documentation runs."""

    COMMANDS = [
        "check consistent in 3",
        "check split_graph in 3",
        "check tlink_loop in 1 5 6",
        "check orphans in orphans.tml",
        "check tlink_loop in loop_eventid.tml",
        "show state of tlink signalid",
        "show state of tlink signalid where reltype is after",
        "show distribution of tlink reltype where signalid is not filled",
        "show distribution of tlink reltype as tex",
        "show distribution of event pos",
        "show list of event text where pos is other",
        "show distribution of tlink signaltext where reltype is before",
        "corpus list",
        "corpus info",
        "browse doc 3",
        "check list",
    ]

    @pytest.mark.parametrize("line", COMMANDS)
    def test_runs_cleanly(self, session, line):
        out = execute(session, parse_command(line))
        assert out is not None

    def test_browse_requires_selection_first(self, session):
        with pytest.raises(CommandError, match="browse doc"):
            execute(session, parse_command("browse event e1"))
        execute(session, parse_command("browse doc consistent.tml"))
        out = execute(session, parse_command("browse event e1 as timeml"))
        assert out.startswith("<EVENT ")


class TestBatchExitCodes:
    def test_clean_run_exit_zero(self, session):
        code, out = run(session, ["show state of tlink signalid"])
        assert code == 0
        assert "signalid filled" in out

    def test_parse_error_exit_one(self, session):
        code, out = run(session, ["show of tlink"])
        assert code == 1
        assert out.startswith("error:")

    def test_query_error_exit_one(self, session):
        # a show query is validated while its line is parsed
        code, out = run(session, ["show list of foo bar"])
        assert code == 1
        assert out.startswith("error: unknown tag 'foo'")

    def test_command_error_exit_one(self, session):
        code, out = run(session, ["browse doc 99"])
        assert code == 1
        assert "no document" in out

    def test_error_findings_exit_two(self, session):
        code, out = run(session, ["check consistent in all"])
        assert code == 2
        assert "# Findings: 2 error" in out

    def test_repeated_target_checked_once(self, session):
        code, out = run(session, [
            "check consistent in inconsistent_direct.tml 3 inconsistent_direct.tml"])
        assert code == 2
        assert out.count("# Checking inconsistent_direct.tml") == 1
        assert out.count("! Inconsistent closure") == 1
        assert "# Findings: 1 error, 0 warning, 0 info" in out

    def test_warning_findings_exit_zero(self, session):
        code, _ = run(session, ["check orphans in orphans.tml"])
        assert code == 0

    def test_exit_stops_processing(self, session):
        code, out = run(session, ["exit", "check consistent in all"])
        assert code == 0
        assert "Findings" not in out

    def test_no_corpus_selected(self, workspace):
        code, out = run(Session(store=Store()), ["show state of tlink signalid"])
        assert code == 1
        assert "no corpus selected" in out


class TestCorpusCommands:
    def test_import_default_name(self, workspace):
        sess = Session(store=Store())
        code, out = run(sess, [f"corpus import {FIXTURE_DIR}"])
        assert code == 0
        assert "Imported corpus 'timeml': 8 documents" in out

    def test_import_counts_warnings(self, workspace, tmp_path):
        """The summary counts the parse warnings, here of dangling references."""
        corpus_dir = tmp_path / "dangling"
        corpus_dir.mkdir()
        shutil.copy(FIXTURE_DIR / "consistent.tml", corpus_dir)
        sess = Session(store=Store())
        _, out = run(sess, [f"corpus import {corpus_dir} as clean"])
        assert out.splitlines() == ["Imported corpus 'clean': 1 documents (fold=none)"]
        (corpus_dir / "dangling.tml").write_text(
            '<TimeML>He <EVENT eid="e1" class="STATE">slept</EVENT>.\n'
            '<MAKEINSTANCE eiid="ei1" eventID="e1"/>\n'
            '<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" relatedToTime="t9"/>\n'
            '<TLINK lid="l2" relType="AFTER" eventInstanceID="ei9" relatedToTime="t9"/>\n'
            '</TimeML>\n', encoding="utf-8")
        code, out = run(sess, [f"corpus import {corpus_dir} as dangling"])
        assert code == 0
        assert out.startswith("Imported corpus 'dangling': 2 documents")
        assert out.splitlines()[1] == "warnings: 3 in 1 document"
        _, out = run(sess, [f"corpus import {FIXTURE_DIR} as fixture"])
        assert out.splitlines()[1] == "warnings: 1 in 1 document"  # orphans.tml

    def test_list_marks_active(self, session):
        _, out = run(session, ["corpus list"])
        assert out.splitlines()[0].startswith("* fix")

    def test_use_unknown(self, session):
        code, out = run(session, ["corpus use nope"])
        assert code == 1

    def test_delete(self, session):
        code, out = run(session, ["corpus delete fix", "corpus list"])
        assert code == 0
        assert "Deleted corpus 'fix'" in out
        assert "No corpora in workspace." in out

    def test_sputlink_placeholder_warns(self, workspace):
        sess = Session(store=Store())
        _, out = run(sess, [f"corpus import {FIXTURE_DIR} as sp fold sputlink"])
        assert "sputlink fold table is empty" in out

    def test_import_duplicate_name_refused(self, session):
        code, out = run(session, [f"corpus import {FIXTURE_DIR} as fix"])
        assert code == 1
        assert "fix" in out

    def test_use_missing_corpus_file(self, session, workspace):
        run(session, [f"corpus import {FIXTURE_DIR} as fx"])
        (workspace / "corpora" / "fx" / "corpus.json").unlink()
        code, out = run(session, ["corpus use fx"])
        assert code == 1
        assert out.startswith("error: cannot read ")
        assert "corpus.json" in out
        assert session.corpus.name == "fix"
        assert Store().active_corpus_name() == "fix"

    def test_corrupt_catalog(self, session, workspace):
        catalog = workspace / "catalog.json"
        catalog.write_text("{bad", encoding="utf-8")
        code, out = run(session, ["corpus list"])
        assert code == 1
        assert out.startswith("error: cannot read ")
        assert "catalog.json" in out
        assert session.corpus.name == "fix"
        assert catalog.read_text(encoding="utf-8") == "{bad"

    @pytest.mark.parametrize("text", [
        "[]", "{}", '{"entries": [], "active": null}',
        '{"entries": {}, "active": 3}', '{"entries": {"x": 1}, "active": null}',
        '{"entries": {"x": {"note": ""}}, "active": null}',
    ])
    def test_catalog_wrong_shape(self, session, workspace, text):
        (workspace / "catalog.json").write_text(text, encoding="utf-8")
        code, out = run(session, ["corpus list"])
        assert code == 1
        assert out.startswith("error: cannot read ")
        assert "catalog.json: not a tmlwb catalog" in out

    def test_reimport_after_lost_catalog(self, session, workspace):
        # a crash between publishing corpora/fx/ and the catalog update
        # leaves the directory without a catalog entry
        run(session, [f"corpus import {FIXTURE_DIR} as fx"])
        (workspace / "catalog.json").unlink()
        code, out = run(session, [f"corpus import {FIXTURE_DIR} as fx", "corpus use fx"])
        assert code == 0
        assert "Using corpus 'fx' (8 documents)" in out


class TestCaseDuplicateAttributes:
    def test_first_in_tag_wins_after_use(self, workspace, tmp_path, capsys):
        """Of two attribute names that differ only in case, the first in the
        tag wins in the stored corpus as in the parsed one: in a report, in
        browse and in a TimeML fragment."""
        corpus_dir = tmp_path / "dup"
        corpus_dir.mkdir()
        (corpus_dir / "dup.tml").write_text(
            '<TimeML>He <EVENT eid="e2" class="OCCURRENCE" Class="STATE">ran</EVENT> '
            'home.\n<MAKEINSTANCE eiid="ei2" eventID="e2"/>\n</TimeML>\n',
            encoding="utf-8")
        assert main(["-c", f"corpus import {corpus_dir} as dup"]) == 0
        capsys.readouterr()
        assert main(["-c", "corpus use dup; show list of event class by document; "
                           "show list of instance class; browse doc 1; "
                           "browse event e2; browse event e2 as timeml"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Using corpus 'dup' (1 documents)",
            " Document  Value",
            " ====================",
            " dup.tml   OCCURRENCE",
            "OCCURRENCE",
            "Selected dup.tml (id 1)",
            "EVENT e2",
            "  class: OCCURRENCE",
            "  Class: STATE",
            "  text: ran",
            "  position: 0:1",
            "Instances:",
            "  MAKEINSTANCE ei2: ",
            '<EVENT eid="e2" class="OCCURRENCE" Class="STATE">ran</EVENT>',
        ]


class TestJsonLines:
    def test_findings_parse(self, session):
        session.findings_format = "json-lines"
        code, out = run(session, ["check orphans in orphans.tml"])
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 5
        assert records[0] == {
            "check": "orphans", "document": "orphans.tml",
            "severity": "WARNING", "subjects": ["t1"],
            "message": "TIMEX3 t1 not in any link",
        }

    def test_consistency_witness(self, session):
        session.findings_format = "json-lines"
        _, out = run(session, ["check consistent in all"])
        records = {r["document"]: r
                   for r in map(json.loads, out.strip().splitlines())}
        assert records["inconsistent_direct.tml"]["subjects"] == ["l1", "l2"]
        assert records["inconsistent_inferred.tml"]["subjects"] == ["l1", "l2", "l3"]
        assert len(records) == 2
        for record in records.values():
            assert record["message"].startswith(
                "! Inconsistent closure - could not assert (")

    def test_repeated_target_one_record(self, session):
        session.findings_format = "json-lines"
        code, out = run(session, [
            "check consistent in inconsistent_direct.tml 3 inconsistent_direct.tml"])
        assert code == 2
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["document"] for r in records] == ["inconsistent_direct.tml"]

    def test_exit_code_still_two(self, session):
        session.findings_format = "json-lines"
        code, _ = run(session, ["check consistent in all"])
        assert code == 2


class TestMainEntry:
    def test_dash_c(self, workspace, capsys):
        code = main(["-c", f"corpus import {FIXTURE_DIR} as m; corpus use m; "
                     "show state of tlink signalid"])
        assert code == 0
        assert "signalid filled" in capsys.readouterr().out

    def test_dash_f(self, workspace, tmp_path, capsys):
        script = tmp_path / "script.tmlwb"
        script.write_text(f"corpus import {FIXTURE_DIR} as m\ncorpus use m\n"
                          "check consistent in all\n")
        assert main(["-f", str(script)]) == 2

    @pytest.mark.parametrize("name", [".", "..", "../../escaped", "a/b", "'a\\b'"])
    def test_bad_corpus_name(self, workspace, capsys, name):
        assert main(["-c", f"corpus import {FIXTURE_DIR} as {name}"]) == 1
        assert capsys.readouterr().out.startswith("error: invalid corpus name")
        assert not workspace.exists()
        assert not (workspace.parent / "escaped").exists()

    def test_empty_corpus_name(self, workspace, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURE_DIR)  # `.` is named after the directory
        assert main(["-c", "corpus import .; corpus list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Imported corpus 'timeml': 8 documents")
        assert "  timeml  (8 documents" in out
        assert main(["-c", "corpus import . as ''"]) == 1
        assert capsys.readouterr().out.startswith("error: invalid corpus name ''")
        assert [e.name for e in Store().list_corpora().entries] == ["timeml"]

    def test_symlinked_directory_keeps_its_name(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        (tmp_path / "latest").symlink_to(FIXTURE_DIR, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        assert main(["-c", "corpus import latest/."]) == 0
        assert capsys.readouterr().out.startswith("Imported corpus 'latest': 8 documents")
        assert [e.name for e in Store().list_corpora().entries] == ["latest"]

    @pytest.mark.parametrize("line,message", [
        ("check consistent in ²", "no document '²'"),
        ("browse doc ²", "no document '²'"),
        ("show distribution of event class min-freq ²",
         "min-freq expects a number, got '²'"),
        pytest.param(f"browse doc {NINES}", f"no document '{NINES}'",
                     id="browse doc 9x5000"),
        pytest.param(f"check orphans in {NINES}", f"no document '{NINES}'",
                     id="check orphans in 9x5000"),
        pytest.param(f"show distribution of event class min-freq {NINES}",
                     "min-freq expects a number", id="min-freq 9x5000"),
    ])
    def test_digit_that_int_refuses(self, workspace, capsys, line, message):
        """'²' is a digit to str.isdigit() but not a number to int(), and
        int() refuses more digits than sys.get_int_max_str_digits()."""
        assert main(["-c", f"corpus import {FIXTURE_DIR} as m; corpus use m; {line}"]) == 1
        out = capsys.readouterr().out
        assert out.count("error:") == 1
        assert out.splitlines()[-1].startswith(f"error: {message}")

    def test_missing_script(self, workspace, capsys):
        assert main(["-f", "/nonexistent/script"]) == 1
        assert capsys.readouterr().out == (
            "error: no such script file: /nonexistent/script\n")

    def test_script_not_utf8(self, workspace, tmp_path, capsys):
        script = tmp_path / "script.tmlwb"
        script.write_bytes(b"\xff\xfecorpus list\n")
        assert main(["-f", str(script)]) == 1
        assert capsys.readouterr().out.startswith(
            f"error: cannot read script file {script}: 'utf-8' codec can't decode")

    def test_semicolon_inside_quotes(self, workspace, capsys):
        code = main(["-c", f"corpus import {FIXTURE_DIR} as m; corpus use m; "
                     'show list of event text where text is "a;b"; '
                     "show list of event text where text is 'won;t'"])
        assert code == 0
        assert "error" not in capsys.readouterr().out

    def test_split_commands(self):
        assert cli._split_commands(
            """a "b;c" ; d 'e;"f'; g\\;h; "i\\";j"; k""") == [
            'a "b;c"', """d 'e;"f'""", "g\\;h", '"i\\";j"', "k"]

    def test_closed_output_pipe(self, workspace):
        """A reader that goes away (`tmlwb -c ... | head -1`) ends the run
        with status 1 and no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tmlwb.cli", "-c", "help; check list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_console_script_installed(self, workspace, monkeypatch, capsys):
        """The `tmlwb` console script declared in pyproject.toml resolves to
        `tmlwb.cli.entry`, which exits with `main()`'s status."""
        toml = tomllib or pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            scripts = toml.load(fh)["project"]["scripts"]
        assert "tmlwb" in scripts
        script = importlib.metadata.EntryPoint(
            name="tmlwb", value=scripts["tmlwb"], group="console_scripts").load()
        assert script is cli.entry

        monkeypatch.setattr(sys, "argv", ["tmlwb", "-c", "help"])
        with pytest.raises(SystemExit) as exc:
            script()
        assert exc.value.code == 0
        assert "Commands:" in capsys.readouterr().out

        monkeypatch.setattr(sys, "argv", ["tmlwb", "-c", "show of tlink"])
        with pytest.raises(SystemExit) as exc:
            script()
        assert exc.value.code == 1
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.skipif(not _distribution_installed("tmlwb"),
                        reason="the tmlwb distribution is not installed")
    def test_console_script_entry_point_installed(self):
        dist = importlib.metadata.distribution("tmlwb")
        (ep,) = dist.entry_points.select(group="console_scripts", name="tmlwb")
        assert ep.value == "tmlwb.cli:entry"
        assert ep.load() is cli.entry
        assert shutil.which("tmlwb") is not None


class TestReplEquivalence:
    def test_repl_matches_batch(self, workspace, monkeypatch, capsys):
        commands = [f"corpus import {FIXTURE_DIR} as r", "corpus use r",
                    "show distribution of tlink reltype",
                    "check orphans in orphans.tml", "exit"]
        feed = iter(commands)
        monkeypatch.setattr("builtins.input", lambda: next(feed))
        assert cli.repl(Session(store=Store())) == 0
        repl_out = capsys.readouterr().out.replace(cli.PROMPT, "")

        sess = Session(store=Store())
        code, batch_out = run(sess, ["corpus delete r"] + commands)
        batch_out = batch_out.replace("Deleted corpus 'r'\n", "")
        assert repl_out == batch_out

    def test_repl_survives_errors(self, workspace, monkeypatch, capsys):
        feed = iter(["show of tlink", "browse doc 1", "help", "exit"])
        monkeypatch.setattr("builtins.input", lambda: next(feed))
        assert cli.repl(Session(store=Store())) == 0
        out = capsys.readouterr().out
        assert out.count("error:") == 2
        assert "Commands:" in out
