import sys

import pytest


def _clear_memos():
    for name, mod in list(sys.modules.items()):
        if (name == "qp3" or name.startswith("qp3.")) and mod is not None:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty every memo of qp3 (every module-level callable with
    `cache_clear`) before the test, so it computes what it checks, and
    after it, so no result of a mutation it made stays cached."""
    _clear_memos()
    yield
    _clear_memos()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from _acceptance_log import RESULTS

    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
