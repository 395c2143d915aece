"""Tier-1 gate: the tier-1 tests fail on exactly the known red test.

Runs the tier-1 command of ROADMAP.md from the repository root, with ``src``
first on PYTHONPATH, and has pytest write a JUnit XML report into a temporary
directory.  Exits 0 iff the set of failed or errored test ids is exactly
KNOWN_RED, and prints any difference.  It deselects and skips nothing, so the
known red test stays visible in pytest's own output.

usage: python scripts/tier1.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# false for p >= 2; see README "Known red test"
KNOWN_RED = {"tests/test_acceptance.py::test_criterion_4_vertex_bound"}


def failed_ids(report_path: str) -> set[str]:
    """Test ids (path::Class::name[param]) of the failed or errored cases in a JUnit report."""
    failed = set()
    for case in ET.parse(report_path).iter("testcase"):
        if case.find("failure") is None and case.find("error") is None:
            continue
        path, classname, name = case.get("file", ""), case.get("classname", ""), case.get("name")
        if not classname:  # a collection error: its module
            failed.add(path or name)
            continue
        scope = classname[len(path) - len(".py") + 1:]  # the class, after the dotted module
        failed.add("::".join(part for part in (path, scope, name) if part))
    return failed


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", "-o", "junit_family=xunit1",
                               f"--junitxml={report}"], cwd=ROOT, env=env)
        if not os.path.exists(report):
            print(f"tier1: pytest exited {proc.returncode} and wrote no report")
            return 1
        failed = failed_ids(report)
    if failed == KNOWN_RED:
        print(f"tier1: ok, only the known red test fails: {sorted(KNOWN_RED)[0]}")
        return 0
    for test_id in sorted(failed - KNOWN_RED):
        print(f"tier1: new failure: {test_id}")
    for test_id in sorted(KNOWN_RED - failed):
        print(f"tier1: the known red test did not fail: {test_id}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
