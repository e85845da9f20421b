"""Shared pytest configuration.

After any run that touched ``tests/test_acceptance.py``, print a one-line
PASS/FAIL verdict per acceptance criterion so the overall gate is readable
at a glance without scrolling through the verbose log.  The ``serial_pool``
fixture stands in for the library's process pools.
"""

from __future__ import annotations

import pytest


class SerialPool:
    """A ``ProcessPoolExecutor`` stand-in that maps in this process and
    records every ``max_workers`` it is asked for."""

    def __init__(self, log: list[int], max_workers: int):
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def serial_pool(monkeypatch) -> list[int]:
    """Patch ``SerialPool`` into census and containers; return its log."""
    import posetfree.census
    import posetfree.containers

    log: list[int] = []
    for module in (posetfree.census, posetfree.containers):
        monkeypatch.setattr(
            module, "ProcessPoolExecutor", lambda max_workers: SerialPool(log, max_workers)
        )
    return log

ACCEPTANCE_FILE = "test_acceptance.py"

# test function name -> (criterion number, short label)
ACCEPTANCE_TESTS = {
    "test_criterion_01_two_chain_free_counts": (1, "2-chain-free counts match the brute census"),
    "test_criterion_02_largest_free_family_sizes": (2, "largest chain-free family sizes"),
    "test_criterion_03_marked_chain_abundance": (3, "marked-chain count lower bound on dense corpora"),
    "test_criterion_04_chain_profile_identities": (4, "chain-profile identities and per-family floors"),
    "test_criterion_05_container_invariants": (5, "container sweep invariants on seeded corpora"),
    "test_criterion_06_graded_chain_covers": (6, "graded chain covers (chain count = #minimal + #maximal - 1)"),
    "test_criterion_07_blowup_structure": (7, "blowup shape, gradedness, size formula"),
    "test_criterion_08_graded_completion": (8, "graded completion on random tree posets"),
    "test_criterion_09_containment_oracle_equivalence": (9, "containment agrees with the brute oracle"),
    "test_criterion_10_census_lower_bounds_and_table": (10, "census lower bounds and experiment table"),
}

_OUTCOME_RANK = {"passed": 0, "skipped": 1, "failed": 2, "error": 2}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for key in ("passed", "skipped", "failed", "error"):
        for report in terminalreporter.stats.get(key, []):
            location = getattr(report, "location", None)
            if not location or ACCEPTANCE_FILE not in str(location[0]):
                continue
            name = location[2].split("[")[0]
            if name not in ACCEPTANCE_TESTS:
                continue
            outcome = "error" if key == "error" else report.outcome
            if name not in results or _OUTCOME_RANK[outcome] > _OUTCOME_RANK[results[name]]:
                results[name] = outcome
    if not results:
        return

    write = terminalreporter.write_line
    terminalreporter.write_sep("=", "acceptance criteria")
    passed = 0
    for name, (number, label) in sorted(ACCEPTANCE_TESTS.items(), key=lambda kv: kv[1][0]):
        outcome = results.get(name)
        if outcome is None:
            status = "NOT RUN"
        elif outcome == "passed":
            status = "PASS"
            passed += 1
        elif outcome == "skipped":
            status = "SKIP"
        else:
            status = "FAIL"
        write(f"criterion {number:2d}: {status:7s} {label}")
    write(f"{passed}/{len(ACCEPTANCE_TESTS)} acceptance criteria passing")
