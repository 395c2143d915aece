"""scripts/compare_reports.py: no difference between a source tree and itself, and a change shows."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_reports.py"


def compare(base, head):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head)],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_tree_against_itself_has_no_difference():
    code, out, err = compare(ROOT, ROOT)
    assert code == 0, out + err
    assert out.endswith(": 245 reports, 0 differ\n") and "differs:" not in out


def test_a_changed_float_format_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "equidist", tmp_path / "src" / "equidist",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "equidist" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    geometry_failure = "except GeometryError as exc:\n        return _fail(exc, 1)"
    assert text.count('".17g"') == 1 and text.count(geometry_failure) == 1
    text = text.replace('".17g"', '".16g"')
    cli.write_text(text.replace(geometry_failure, geometry_failure[:-2] + "3)"), encoding="utf-8")
    code, out, _ = compare(ROOT, tmp_path)
    assert code == 1
    assert "differs: boundary ring-8-12-0.json: stdout" in out
    assert "differs: recognize-pentagon ring-8-12-0.json" not in out  # a ParseFailure either way
    # failure reports: only the exit code of a geometry error changed
    assert "differs: boundary unbounded.json: exit\n" in out
    assert "differs: construct-quad convex-quad.json: exit\n" in out
    assert "differs: construct-quad unbounded.json" not in out  # a ParseFailure: exit 2
