"""Fixture-corpus tests: every rule fires with exact code and line number.

Offending fixtures mark each expected finding with a trailing
``# expect: CODE`` comment; the tests recover ``(line, code)`` pairs from
those markers and require the lint findings to match them exactly.  Clean
fixtures must produce no findings at all.
"""

import re
from pathlib import Path

import pytest

from repro.lint import lint_file, run_lint
from repro.lint.findings import format_text

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def expected(path: Path):
    """``(line, code)`` pairs declared by ``# expect:`` markers."""
    pairs = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            pairs.append((lineno, match.group(1)))
    return sorted(pairs)


BAD_CASES = [
    ("det001_bad.py", "repro.network.det001_bad"),
    ("det002_bad.py", "repro.analysis.det002_bad"),
    ("det003_bad.py", "repro.network.det003_bad"),
    ("det004_bad.py", "repro.traffic.det004_bad"),
    ("det004_exempt_bad.py", "repro.network.det004_exempt_bad"),
    ("eff001_bad.py", "repro.network.eff001_bad"),
    ("eff002_bad.py", "repro.network.eff002_bad"),
    ("eff004_bad.py", "repro.network.eff004_bad"),
    ("proto001_bad.py", "repro.core.proto001_bad"),
    ("proto001_probe_bad.py", "repro.core.proto001_probe_bad"),
    ("proto002_bad.py", "repro.metrics.proto002_bad"),
    ("proto003_bad.py", "repro.core.proto003_bad"),
]

CLEAN_CASES = [
    ("det001_clean.py", "repro.network.det001_clean"),
    ("det002_clean.py", "repro.analysis.det002_clean"),
    ("det003_clean.py", "repro.network.det003_clean"),
    ("det004_clean.py", "repro.traffic.det004_clean"),
    ("det004_exempt_clean.py", "repro.network.det004_exempt_clean"),
    ("eff001_clean.py", "repro.network.eff001_clean"),
    ("eff002_clean.py", "repro.network.eff002_clean"),
    ("eff004_clean.py", "repro.network.eff004_clean"),
    ("proto001_clean.py", "repro.core.proto001_clean"),
    ("proto001_probe_clean.py", "repro.core.proto001_probe_clean"),
    ("proto002_clean.py", "repro.metrics.proto002_clean"),
    ("proto003_clean.py", "repro.core.proto003_clean"),
]


@pytest.mark.parametrize("fixture,module_name", BAD_CASES)
def test_bad_fixture_detected_with_exact_code_and_line(fixture, module_name):
    path = FIXTURES / fixture
    marks = expected(path)
    assert marks, f"{fixture} declares no # expect: markers"
    result = lint_file(path, module_name=module_name)
    actual = sorted((f.line, f.code) for f in result.findings)
    assert actual == marks, format_text(result.findings)


@pytest.mark.parametrize("fixture,module_name", CLEAN_CASES)
def test_clean_fixture_produces_no_findings(fixture, module_name):
    path = FIXTURES / fixture
    result = lint_file(path, module_name=module_name)
    assert result.findings == [], format_text(result.findings)
    assert result.ok


def test_scoped_rules_skip_out_of_scope_modules():
    # The same offending sources are silent outside their rule's scope.
    numpy_fixture = FIXTURES / "det004_bad.py"
    result = lint_file(numpy_fixture, module_name="repro.analysis.det004_bad")
    assert result.findings == [], format_text(result.findings)
    clock_fixture = FIXTURES / "det001_bad.py"
    result = lint_file(clock_fixture, module_name="repro.figures.det001_bad")
    assert result.findings == [], format_text(result.findings)


def test_proto001_resolves_inheritance_across_files():
    paths = [FIXTURES / "proto001_base.py", FIXTURES / "proto001_cross.py"]
    result = run_lint(paths)
    cross = FIXTURES / "proto001_cross.py"
    assert sorted(
        (Path(f.path).name, f.line, f.code) for f in result.findings
    ) == [("proto001_cross.py", line, code) for line, code in expected(cross)]


def test_inline_disable_suppresses_own_and_next_line():
    result = lint_file(
        FIXTURES / "suppressions.py",
        module_name="repro.network.suppressions",
    )
    assert result.findings == [], format_text(result.findings)


def test_file_wide_disable_suppresses_everywhere():
    result = lint_file(
        FIXTURES / "suppress_file.py",
        module_name="repro.network.suppress_file",
    )
    assert result.findings == [], format_text(result.findings)


def test_disable_comments_are_load_bearing(tmp_path):
    source = (FIXTURES / "suppressions.py").read_text()
    stripped = re.sub(r"#\s*repro-lint:[^\n]*", "", source)
    path = tmp_path / "mod.py"
    path.write_text(stripped)
    result = lint_file(path, module_name="repro.network.mod")
    assert [f.code for f in result.findings] == ["DET001", "DET001"]


def test_syntax_errors_are_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    result = lint_file(path)
    assert not result.ok
    assert result.findings[0].code == "SYNTAX"


def test_repro_source_tree_is_lint_clean():
    repo_root = Path(__file__).resolve().parents[2]
    result = run_lint([repo_root / "src" / "repro"])
    assert result.ok, format_text(result.findings)
    assert result.files_checked > 50
