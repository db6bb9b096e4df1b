"""Runner behaviour: pragmas, parse errors, the live-tree gate and the
stable ``repro-check/1`` JSON schema."""

import json
from pathlib import Path

import pytest

import repro
from repro.lint import JSON_SCHEMA, RULE_FAMILIES, run_check

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = Path(repro.__file__).parent


def test_real_tree_is_clean():
    report = run_check([PACKAGE_ROOT])
    assert report.findings == [], "\n" + report.render_text()
    assert report.ok and report.exit_code() == 0


def test_rule_families_are_the_documented_four():
    assert sorted(RULE_FAMILIES) == [
        "block-protocol",
        "facade",
        "fingerprint",
        "kernel-purity",
    ]


def test_unknown_rule_family_raises():
    with pytest.raises(ValueError, match="unknown rule families"):
        run_check([FIXTURES / "broken_all"], rules=["nonsense"])


def test_justified_inline_pragma_suppresses_and_is_counted():
    report = run_check([FIXTURES / "pragmas"], rules=["facade"])
    assert not any(f.rule_id == "facade.all-unresolved" for f in report.findings)
    assert report.n_suppressed == 1


def test_reasonless_and_unknown_pragmas_are_findings():
    report = run_check([FIXTURES / "pragmas"], rules=["facade"])
    got = [(f.rule_id, f.path, f.line) for f in report.findings]
    assert ("pragma.missing-reason", "bad_pragmas.py", 3) in got
    assert ("pragma.unknown-rule", "bad_pragmas.py", 4) in got


def test_pragma_syntax_quoted_in_strings_is_not_a_pragma():
    # the lint package's own docstrings spell out the pragma syntax;
    # tokenised pragma extraction must not mistake them for suppressions
    report = run_check([PACKAGE_ROOT / "lint"])
    assert not any(f.rule_id.startswith("pragma.") for f in report.findings)


def test_syntax_error_file_reports_parse_error():
    report = run_check([FIXTURES / "syntaxerror"])
    got = [(f.rule_id, f.path, f.line) for f in report.findings]
    assert got == [("parse.error", "broken.py", 3)]
    assert report.exit_code() == 1


def test_json_report_schema_snapshot():
    report = run_check([FIXTURES / "broken_all"], rules=["facade"])
    doc = report.to_json_dict()
    # round-trips through the renderer unchanged
    assert json.loads(report.render_json()) == doc
    assert sorted(doc) == ["findings", "roots", "rules", "schema", "summary"]
    assert doc["schema"] == JSON_SCHEMA == "repro-check/1"
    assert doc["rules"] == ["facade"]
    assert doc["summary"] == {
        "n_files": 3,
        "n_findings": 3,
        "n_errors": 3,
        "n_warnings": 0,
        "n_suppressed": 0,
        "ok": False,
    }
    skeleton = [
        {k: f[k] for k in ("rule_id", "path", "line", "severity")}
        for f in doc["findings"]
    ]
    assert skeleton == [  # sorted by (path, line, rule_id)
        {
            "rule_id": "facade.all-format",
            "path": "computed.py",
            "line": 3,
            "severity": "error",
        },
        {
            "rule_id": "facade.all-unresolved",
            "path": "exports.py",
            "line": 3,
            "severity": "error",
        },
        {
            "rule_id": "facade.all-missing",
            "path": "noall.py",
            "line": 1,
            "severity": "error",
        },
    ]
    assert all(
        isinstance(f["message"], str) and f["message"] for f in doc["findings"]
    )


def test_text_report_format_is_path_line_rule():
    report = run_check([FIXTURES / "broken_all"], rules=["facade"])
    first = report.render_text().splitlines()[0]
    assert first.startswith("computed.py:3: [facade.all-format] ")
