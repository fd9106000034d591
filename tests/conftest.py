import sys

import pytest


@pytest.fixture
def fresh_caches():
    """Empty every memo of qp3 (every module-level callable with
    `cache_clear`), so the test computes what it checks."""
    for name, mod in list(sys.modules.items()):
        if (name == "qp3" or name.startswith("qp3.")) and mod is not None:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from _acceptance_log import RESULTS

    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
