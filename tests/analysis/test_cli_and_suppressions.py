"""CLI surface, exit-code policy, suppression parsing, and the self-clean
gate the CI lint lane relies on."""

import json
from pathlib import Path

import pytest
import repro
from repro.analysis import available_checkers
from repro.analysis.__main__ import main
from repro.analysis.suppressions import is_suppressed, parse_suppressions

SRC_REPRO = Path(repro.__file__).parent


# -- the CI gate ---------------------------------------------------------------


def test_src_repro_lints_clean_strict(capsys):
    """`python -m repro.analysis --strict` on src/repro exits 0 — the exact
    command the CI lint lane runs."""
    assert main([str(SRC_REPRO), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_default_path_is_the_repro_package(capsys):
    assert main(["--strict"]) == 0
    out = capsys.readouterr().out
    assert "repro.analysis:" in out


# -- exit codes ----------------------------------------------------------------


def test_fixture_violations_gate(fixtures_dir, capsys):
    assert main([str(fixtures_dir / "fixture_determinism.py")]) == 1


def test_warnings_gate_only_under_strict(fixtures_dir, tmp_path, capsys):
    warning_only = tmp_path / "warn.py"
    warning_only.write_text(
        "import time\n"
        "def f(values):\n"
        "    for v in set(values):\n"
        "        print(v)\n"
    )
    assert main([str(warning_only)]) == 0
    assert main([str(warning_only), "--strict"]) == 1


def test_missing_path_is_usage_error(capsys):
    assert main(["/nonexistent/path/module.py"]) == 2
    assert "repro.analysis:" in capsys.readouterr().err


def test_unknown_rule_is_usage_error(capsys):
    assert main([str(SRC_REPRO), "--select", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


# -- output formats and filters ------------------------------------------------


def test_json_format(fixtures_dir, capsys):
    main([str(fixtures_dir / "fixture_determinism.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] > 0
    assert payload["modules_checked"] == 1
    finding = payload["findings"][0]
    assert {"path", "line", "rule", "severity", "message"} <= set(finding)


def test_select_restricts_rules(fixtures_dir, capsys):
    main(
        [
            str(fixtures_dir / "fixture_determinism.py"),
            "--format",
            "json",
            "--select",
            "det-wall-clock",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]
    assert {f["rule"] for f in payload["findings"]} == {"det-wall-clock"}


def test_checker_filter(fixtures_dir, capsys):
    main(
        [
            str(fixtures_dir / "fixture_determinism.py"),
            "--checker",
            "pickle-safety",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["checkers"] == ["pickle-safety"]


def test_show_suppressed(fixtures_dir, capsys):
    main([str(fixtures_dir / "fixture_determinism.py"), "--show-suppressed"])
    assert "[suppressed]" in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "det-global-rng",
        "det-unpinned-rng",
        "det-wall-clock",
        "det-monotonic-flow",
        "det-unordered-iter",
        "pickle-unsafe-field",
        "pickle-unsafe-attr",
    ):
        assert rule in out
    for checker in available_checkers():
        assert checker in out


# -- suppression parsing -------------------------------------------------------


def test_trailing_suppression_covers_own_line():
    table, _ = parse_suppressions("x = 1  # repro: ignore[det-wall-clock]\n")
    assert is_suppressed(table, 1, "det-wall-clock")
    assert not is_suppressed(table, 1, "det-global-rng")
    assert not is_suppressed(table, 2, "det-wall-clock")


def test_standalone_suppression_covers_next_line():
    table, _ = parse_suppressions(
        "# repro: ignore[det-monotonic-flow] -- timing only\nx = f()\n"
    )
    assert is_suppressed(table, 2, "det-monotonic-flow")
    assert not is_suppressed(table, 3, "det-monotonic-flow")


def test_wildcard_suppression_covers_all_rules():
    table, _ = parse_suppressions("x = 1  # repro: ignore[*]\n")
    assert is_suppressed(table, 1, "det-wall-clock")
    assert is_suppressed(table, 1, "pickle-unsafe-field")


def test_multi_rule_suppression():
    table, _ = parse_suppressions(
        "x = 1  # repro: ignore[det-wall-clock, det-global-rng]\n"
    )
    assert is_suppressed(table, 1, "det-wall-clock")
    assert is_suppressed(table, 1, "det-global-rng")
    assert not is_suppressed(table, 1, "det-unpinned-rng")


def test_boundary_marker_lines_are_collected():
    """A standalone marker covers the next line — the class (or first
    decorator) it annotates."""
    _, markers = parse_suppressions(
        "# repro: pickle-boundary\nclass _ShardThing:\n    pass\n"
    )
    assert 2 in markers


def test_marker_inside_string_is_not_a_marker():
    _, markers = parse_suppressions('text = "# repro: pickle-boundary"\n')
    assert not markers
