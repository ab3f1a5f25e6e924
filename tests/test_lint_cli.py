"""End-to-end tests for ``repro lint`` and the analyzer's surfacing in
``check``/``batch``: exit codes, ``--json`` schema stability, and the
short-circuit counters in ``batch --stats``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cr.builder import SchemaBuilder
from repro.dsl import serialize_schema
from repro.paper import figure1_schema, meeting_schema


def _write(tmp_path, name, schema):
    path = tmp_path / f"{name}.cr"
    path.write_text(serialize_schema(schema))
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    return _write(tmp_path, "meeting", meeting_schema())


@pytest.fixture
def warning_file(tmp_path):
    # An ISA cycle: legal (the classes are merely forced equal), so a
    # warning, not an error.
    schema = (
        SchemaBuilder("Warn")
        .classes("A", "B")
        .relationship("R", r1="A", r2="B")
        .isa("A", "B")
        .isa("B", "A")
        .build()
    )
    return _write(tmp_path, "warn", schema)


@pytest.fixture
def error_file(tmp_path):
    schema = (
        SchemaBuilder("Broken")
        .classes("A", "B", "C")
        .relationship("R", r1="A", r2="C")
        .isa("B", "A")
        .card("A", "R", "r1", 0, 1)
        .card("B", "R", "r1", 2, None)
        .build()
    )
    return _write(tmp_path, "broken", schema)


class TestExitCodes:
    def test_clean_schema_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_warnings_exit_zero_by_default(self, warning_file, capsys):
        assert main(["lint", warning_file]) == 0
        assert "isa-cycle" in capsys.readouterr().out

    def test_warnings_exit_one_under_strict(self, warning_file, capsys):
        assert main(["lint", warning_file, "--strict"]) == 1
        assert "isa-cycle" in capsys.readouterr().out

    def test_errors_exit_one(self, error_file, capsys):
        assert main(["lint", error_file]) == 1
        out = capsys.readouterr().out
        assert "card-refinement-conflict" in out
        assert "B" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.cr")]) == 2
        assert capsys.readouterr().err

    def test_unparsable_schema_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.cr"
        path.write_text("schema Oops { this is not CR }\n")
        assert main(["lint", str(path)]) == 2
        assert capsys.readouterr().err

    def test_figure1_lints_clean(self, tmp_path, capsys):
        # Finite-only unsatisfiability is out of static reach — lint
        # must not claim otherwise (soundness over completeness).
        path = _write(tmp_path, "figure1", figure1_schema())
        assert main(["lint", path, "--strict"]) == 0
        capsys.readouterr()


class TestJsonReport:
    def test_payload_shape_is_stable(self, error_file, capsys):
        assert main(["lint", error_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema", "diagnostics", "summary"}
        assert payload["schema"] == "Broken"
        assert set(payload["summary"]) == {
            "error",
            "warning",
            "info",
            "unsat_classes",
        }
        assert payload["summary"]["unsat_classes"] == ["B"]
        for diagnostic in payload["diagnostics"]:
            assert set(diagnostic) == {
                "code",
                "severity",
                "message",
                "classes",
                "relationships",
                "witness",
            }

    def test_clean_json_has_empty_diagnostics(self, clean_file, capsys):
        assert main(["lint", clean_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
        assert payload["summary"]["error"] == 0

    def test_json_is_deterministic(self, error_file, capsys):
        main(["lint", error_file, "--json"])
        first = capsys.readouterr().out
        main(["lint", error_file, "--json"])
        assert capsys.readouterr().out == first


class TestShortCircuitSurfacing:
    def test_check_prints_the_diagnostic(self, error_file, capsys):
        assert main(["check", error_file, "--class", "B"]) == 1
        out = capsys.readouterr().out
        assert "B: UNSATISFIABLE" in out
        assert "card-refinement-conflict" in out

    def test_batch_stats_count_short_circuits(self, error_file, capsys):
        code = main(
            [
                "batch",
                error_file,
                "--query",
                "sat B",
                "--query",
                "sat B",
                "--stats",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "# analyze: 1 run(s), 2 short-circuit(s)" in out
        # The static proof settled both queries: no expansion was built.
        assert "0 expansion build(s)" in out

    def test_batch_stats_on_clean_schema(self, clean_file, capsys):
        code = main(
            ["batch", clean_file, "--query", "sat Speaker", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# analyze: 1 run(s), 0 short-circuit(s)" in out
        assert "1 expansion build(s)" in out


class TestRepoLint:
    """``repro lint --repo`` — the lintkit self-lint surfaced on the
    CLI, gated against the checked-in baseline."""

    def test_repo_mode_is_clean_against_baseline(self, capsys):
        assert main(["lint", "--repo"]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out
        assert "repo lint:" in out

    def test_empty_baseline_surfaces_findings(self, tmp_path, capsys):
        # With no suppressions, the accepted (baselined) findings
        # become new findings and the gate fails.
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1, "suppressions": []}')
        assert main(["lint", "--repo", "--baseline", str(path)]) == 1
        assert "new finding(s)" in capsys.readouterr().out

    def test_invalid_baseline_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["lint", "--repo", "--baseline", str(path)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_stale_suppression_fails_only_under_strict(
        self, tmp_path, capsys
    ):
        import repro.lintkit as lintkit

        baseline = json.loads(
            lintkit.default_baseline_path().read_text()
        )
        baseline["suppressions"].append(
            {
                "rule": "R1",
                "path": "repro/solver/nonexistent.py",
                "scope": "gone",
                "justification": "matches nothing on purpose",
            }
        )
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(baseline))
        assert main(["lint", "--repo", "--baseline", str(path)]) == 0
        assert "stale suppression" in capsys.readouterr().out
        assert (
            main(["lint", "--repo", "--baseline", str(path), "--strict"])
            == 1
        )
        capsys.readouterr()

    def test_json_report_shape(self, capsys):
        assert main(["lint", "--repo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version",
            "files_checked",
            "summary",
            "new_findings",
            "baselined",
            "stale_suppressions",
        }
        assert payload["summary"]["new"] == 0
        for finding in payload["baselined"]:
            assert set(finding) == {
                "rule",
                "path",
                "line",
                "scope",
                "message",
                "witness",
            }

    def test_no_schema_and_no_repo_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "schema file" in capsys.readouterr().err


class TestExitCodeDocParity:
    """Satellite: the exit semantics are stated once and pinned on all
    three surfaces — ``--help`` epilog, README, actual behavior."""

    def test_help_epilog_carries_the_exit_codes(self, capsys):
        from repro.cli import LINT_EXIT_CODES

        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        assert LINT_EXIT_CODES in capsys.readouterr().out

    def test_readme_carries_the_exit_codes_verbatim(self):
        from pathlib import Path

        from repro.cli import LINT_EXIT_CODES

        readme = (
            Path(__file__).resolve().parent.parent / "README.md"
        ).read_text()
        assert LINT_EXIT_CODES in readme

    def test_strict_help_mentions_both_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "schema warnings" in out
        assert "stale baseline" in out

    def test_behavior_matches_the_stated_codes(
        self, clean_file, warning_file, tmp_path, capsys
    ):
        # 0 = clean; 1 = findings (warnings under --strict);
        # 2 = unreadable or invalid input.
        assert main(["lint", clean_file]) == 0
        assert main(["lint", warning_file, "--strict"]) == 1
        assert main(["lint", str(tmp_path / "absent.cr")]) == 2
        capsys.readouterr()
