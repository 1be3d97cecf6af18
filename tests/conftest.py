import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# property tests draw the same examples on every run and leave no database
settings.register_profile(
    "jetmod", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("jetmod")

_ACCEPTANCE = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE:
        terminalreporter.write_line(
            f"{name}: {'PASS' if outcome == 'passed' else 'FAIL'}"
        )
