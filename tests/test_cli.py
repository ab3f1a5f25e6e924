"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main, parse_statement
from repro.cr.constraints import (
    DisjointnessStatement,
    IsaStatement,
    MaxCardinalityStatement,
    MinCardinalityStatement,
)
from repro.dsl import serialize_schema
from repro.errors import ReproError
from repro.paper import figure1_schema, meeting_schema, refined_meeting_schema


@pytest.fixture
def meeting_file(tmp_path):
    path = tmp_path / "meeting.cr"
    path.write_text(serialize_schema(meeting_schema()))
    return str(path)


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.cr"
    path.write_text(serialize_schema(figure1_schema()))
    return str(path)


@pytest.fixture
def refined_file(tmp_path):
    path = tmp_path / "refined.cr"
    path.write_text(serialize_schema(refined_meeting_schema()))
    return str(path)


class TestParseStatement:
    def test_isa(self):
        assert parse_statement("A isa B") == IsaStatement("A", "B")

    def test_minc(self):
        assert parse_statement("minc(C, R, U) = 3") == MinCardinalityStatement(
            "C", "R", "U", 3
        )

    def test_maxc(self):
        assert parse_statement("maxc(C,R,U)=1") == MaxCardinalityStatement(
            "C", "R", "U", 1
        )

    def test_disjoint(self):
        statement = parse_statement("disjoint(A, B, C)")
        assert statement == DisjointnessStatement(frozenset({"A", "B", "C"}))

    def test_garbage_rejected(self):
        with pytest.raises(ReproError):
            parse_statement("A subset of B")


class TestCheck:
    def test_satisfiable_schema_exits_zero(self, meeting_file, capsys):
        assert main(["check", meeting_file]) == 0
        out = capsys.readouterr().out
        assert "Speaker: satisfiable" in out

    def test_unsatisfiable_schema_exits_one(self, figure1_file, capsys):
        assert main(["check", figure1_file]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_single_class(self, meeting_file, capsys):
        assert main(["check", meeting_file, "--class", "Talk"]) == 0
        assert "Talk: satisfiable" in capsys.readouterr().out

    def test_unrestricted_flag(self, figure1_file, capsys):
        assert main(["check", figure1_file, "--unrestricted"]) == 1
        out = capsys.readouterr().out
        assert "[unrestricted: satisfiable]" in out

    def test_naive_engine(self, meeting_file, capsys):
        assert main(
            ["check", meeting_file, "--class", "Talk", "--backend", "naive"]
        ) == 0

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.cr"]) == 2
        assert "error" in capsys.readouterr().err


class TestImplies:
    def test_figure7_inference(self, meeting_file, capsys):
        code = main(["implies", meeting_file, "Speaker isa Discussant"])
        assert code == 0
        assert "S |= Speaker isa Discussant" in capsys.readouterr().out

    def test_maxc_inference(self, meeting_file, capsys):
        code = main(["implies", meeting_file, "maxc(Speaker, Holds, U1) = 1"])
        assert code == 0

    def test_non_implication_with_countermodel(self, meeting_file, capsys):
        code = main(
            ["implies", meeting_file, "Talk isa Speaker", "--countermodel"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "S |/= Talk isa Speaker" in out
        assert "Delta = {" in out

    def test_bad_statement(self, meeting_file, capsys):
        assert main(["implies", meeting_file, "gibberish!!"]) == 2


class TestModel:
    def test_witness_model_printed(self, meeting_file, capsys):
        assert main(["model", meeting_file, "--class", "Speaker"]) == 0
        out = capsys.readouterr().out
        assert "Speaker^I" in out
        assert "Holds^I" in out

    def test_unsatisfiable_class(self, figure1_file, capsys):
        assert main(["model", figure1_file, "--class", "D"]) == 1


class TestExplainAndDebug:
    def test_explain_prints_a_proof(self, figure1_file, capsys):
        assert main(["explain", figure1_file, "--class", "D"]) == 0
        assert "Farkas" in capsys.readouterr().out

    def test_explain_satisfiable_is_an_error(self, meeting_file, capsys):
        assert main(["explain", meeting_file, "--class", "Talk"]) == 2

    def test_debug_reports_a_mus(self, refined_file, capsys):
        assert main(["debug", refined_file, "--class", "Speaker"]) == 0
        out = capsys.readouterr().out
        assert "minimal conflicting constraint set" in out

    def test_debug_deletion_algorithm(self, figure1_file, capsys):
        code = main(
            ["debug", figure1_file, "--class", "D", "--algorithm", "deletion"]
        )
        assert code == 0


class TestRenderAndFmt:
    def test_render_schema(self, meeting_file, capsys):
        assert main(["render", meeting_file]) == 0
        assert "Sisa" in capsys.readouterr().out

    def test_render_expansion(self, meeting_file, capsys):
        assert main(["render", meeting_file, "--what", "expansion"]) == 0
        assert "Cc = {C1, C3, C4, C5, C7};" in capsys.readouterr().out

    def test_render_system(self, meeting_file, capsys):
        assert main(["render", meeting_file, "--what", "system"]) == 0
        assert "lifted minc disequations" in capsys.readouterr().out

    def test_fmt_roundtrip(self, meeting_file, capsys):
        assert main(["fmt", meeting_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("schema Meeting {")

    def test_fmt_write_in_place(self, tmp_path):
        path = tmp_path / "messy.cr"
        path.write_text(
            "schema S {   class A;\n\n  class B;"
            " relationship R(U1: A, U2: B); }"
        )
        assert main(["fmt", str(path), "--write"]) == 0
        assert path.read_text().startswith("schema S {\n  class A;")


class TestExitCodes:
    """The full matrix: 0 positive, 1 negative, 2 usage error, 3 exhaustion."""

    def test_check_positive_is_zero(self, meeting_file):
        assert main(["check", meeting_file]) == 0

    def test_check_negative_is_one(self, figure1_file):
        assert main(["check", figure1_file]) == 1

    def test_implies_positive_is_zero(self, meeting_file):
        assert main(["implies", meeting_file, "Speaker isa Discussant"]) == 0

    def test_implies_negative_is_one(self, meeting_file):
        assert main(["implies", meeting_file, "Talk isa Speaker"]) == 1

    def test_model_negative_is_one(self, figure1_file):
        assert main(["model", figure1_file, "--class", "D"]) == 1

    def test_unknown_class_is_two(self, meeting_file, capsys):
        assert main(["check", meeting_file, "--class", "Nope"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["fourier-motzkin", "sparse-simplex"])
    def test_removed_backend_value_is_two(
        self, meeting_file, capsys, monkeypatch, removed
    ):
        monkeypatch.setenv("REPRO_BACKEND", removed)
        assert main(["check", meeting_file]) == 2
        err = capsys.readouterr().err
        assert f"unknown solver backend {removed!r}" in err
        assert "fixpoint, naive, pruned" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--class", "Talk"],
            ["implies", "Talk isa Speaker"],
            ["model", "--class", "Talk"],
        ],
        ids=["check", "implies", "model"],
    )
    def test_engine_flag_is_refused(self, meeting_file, capsys, argv):
        # --backend is the one engine flag; argparse exits 2 on --engine.
        command, *rest = argv
        with pytest.raises(SystemExit) as exit_info:
            main([command, meeting_file, *rest, "--engine", "naive"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--class", "Talk"],
            ["batch", "--query", "sat Talk"],
            ["implies", "Talk isa Speaker"],
        ],
        ids=["check", "batch", "implies"],
    )
    def test_jobs_flag_is_refused(self, meeting_file, capsys, argv):
        # Every command runs serially; argparse exits 2 on --jobs.
        command, *rest = argv
        with pytest.raises(SystemExit) as exit_info:
            main([command, meeting_file, *rest, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_parse_error_is_two_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.cr"
        path.write_text("schema Bad {\n  class A;\n  garbage !!\n}\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "3:11" in err  # 1-based line:column of the offending token

    def test_explain_on_satisfiable_is_two(self, meeting_file):
        assert main(["explain", meeting_file, "--class", "Speaker"]) == 2

    def test_budget_exhaustion_is_three(self, meeting_file, capsys):
        code = main(["check", meeting_file, "--max-expansion", "1"])
        assert code == 3
        assert "UNKNOWN" in capsys.readouterr().out

    def test_zero_timeout_is_three(self, meeting_file):
        assert main(["check", meeting_file, "--timeout", "0"]) == 3

    def test_single_class_budget_unknown(self, meeting_file, capsys):
        code = main(
            ["check", meeting_file, "--class", "Speaker", "--max-lp", "1"]
        )
        assert code == 3
        assert "Speaker: UNKNOWN" in capsys.readouterr().out

    def test_implies_budget_unknown_is_three(self, meeting_file, capsys):
        code = main(
            ["implies", meeting_file, "Speaker isa Discussant", "--max-lp", "1"]
        )
        assert code == 3
        assert "unknown" in capsys.readouterr().out

    def test_model_under_ambient_budget_is_three(self, meeting_file, capsys):
        code = main(
            ["model", meeting_file, "--class", "Speaker", "--max-expansion", "1"]
        )
        assert code == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_debug_under_ambient_budget_is_three(self, figure1_file, capsys):
        code = main(
            ["debug", figure1_file, "--class", "D", "--timeout", "0"]
        )
        assert code == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_explain_under_ambient_budget_is_three(self, figure1_file):
        assert main(
            ["explain", figure1_file, "--class", "D", "--timeout", "0"]
        ) == 3

    def test_generous_budget_does_not_change_the_answer(self, meeting_file):
        assert main(["check", meeting_file, "--timeout", "60"]) == 0

    def test_static_expansion_limit_is_three(self, tmp_path, capsys):
        # Enough classes that the default ExpansionLimits guard fires
        # (2^17 - 1 compound classes > the 2^16 cap) before any budget.
        classes = "\n".join(f"  class C{i};" for i in range(17))
        path = tmp_path / "wide.cr"
        path.write_text(f"schema Wide {{\n{classes}\n}}\n")
        assert main(["check", str(path)]) == 3
        assert "compound classes" in capsys.readouterr().err


class TestBatch:
    def test_inline_queries_share_one_expansion(self, meeting_file, capsys):
        code = main(
            [
                "batch",
                meeting_file,
                "--query",
                "sat Talk",
                "--query",
                "Talk isa Speaker",
                "--stats",
            ]
        )
        assert code == 1  # the ISA statement is not implied
        out = capsys.readouterr().out
        assert "sat Talk: satisfiable" in out
        assert "S |/= Talk isa Speaker" in out
        assert "1 expansion build(s)" in out

    def test_query_file_with_comments(self, meeting_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# positive-only batch\n"
            "sat Speaker\n"
            "\n"
            "Discussant isa Speaker\n"
            "maxc(Talk, Holds, U2) = 1\n"
        )
        assert main(["batch", meeting_file, str(queries)]) == 0
        out = capsys.readouterr().out
        assert "S |= Discussant isa Speaker" in out

    def test_stdin_queries(self, meeting_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("sat Speaker\n"))
        assert main(["batch", meeting_file, "-"]) == 0
        assert "sat Speaker: satisfiable" in capsys.readouterr().out

    def test_json_report(self, meeting_file, capsys):
        import json

        code = main(
            [
                "batch",
                meeting_file,
                "--query",
                "sat Speaker",
                "--query",
                "Discussant isa Speaker",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "Meeting"
        assert len(report["fingerprint"]) == 64
        assert [r["verdict"] for r in report["results"]] == [
            "sat",
            "implied",
        ]
        assert report["stats"]["expansion_builds"] == 1

    def test_empty_batch_is_a_usage_error(self, meeting_file, capsys):
        assert main(["batch", meeting_file]) == 2
        assert "at least one query" in capsys.readouterr().err

    def test_unsatisfiable_class_exits_one(self, figure1_file, capsys):
        code = main(["batch", figure1_file, "--query", "sat D"])
        assert code == 1
        assert "sat D: UNSATISFIABLE" in capsys.readouterr().out

    def test_exhausted_budget_exits_three(self, meeting_file, capsys):
        code = main(
            ["batch", meeting_file, "--query", "sat Talk", "--timeout", "0"]
        )
        assert code == 3
        assert "UNKNOWN" in capsys.readouterr().out
