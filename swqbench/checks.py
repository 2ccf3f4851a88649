"""Output checks applied to every `swq` invocation the benchmark makes.

An invocation is checked against the multiset of (identity_id, order)
pairs the seed commit reported for it (expected_checks.json), so a
change cannot gain speed by dropping a check or lowering an order.

A check is wrong when its status differs from the expected one: pass
everywhere, except warnaar-v2 with lambda = p, whose product side
vanishes identically and which is known to be false.  A crash, a
timeout, an unexpected exit code, a report that does not parse or has
other keys, or a multiset that differs from the pinned one makes every
check of the invocation wrong.

Wrong checks that is_known_defect accepts are counted as wrong (they
enter wrong_check_share) but not as failures: they are the
program's state at the seed commit, not regressions.  A change that
fixes one turns it into a right check.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

# The exact key list of one JSON report object, in order.
REPORT_KEYS = ["identity_id", "params", "order", "status", "first_mismatch", "runtime_ms"]


def expected_status(report: dict) -> str:
    params = report["params"]
    if report["identity_id"] == "warnaar-v2" and params.get("lambda") == params.get("p"):
        return "fail"
    return "pass"


def is_known_defect(report: dict) -> bool:
    """The one wrong verdict of the seed commit: the SVD rank probe's
    false failure of ns-space-rank at m = 2, 3, 4 (ROADMAP item 4)."""
    return (
        report["identity_id"] == "ns-space-rank"
        and report["status"] == "fail"
        and report["params"].get("m") in (2, 3, 4)
    )


@dataclass
class CheckResult:
    """Outcome of checking one invocation."""

    attempted: int = 0
    wrong: int = 0
    failed: int = 0  # wrong and not a known defect
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.failed += other.failed
        self.problems.extend(other.problems)


def check_invocation(stdout: str, returncode: int | None, expected: dict[str, int]) -> CheckResult:
    """Check one invocation's JSON report against the pinned multiset
    `expected` ("identity_id@order" -> count).  returncode None means
    the invocation timed out."""
    n = sum(expected.values())

    def all_wrong(problem: str) -> CheckResult:
        return CheckResult(attempted=n, wrong=n, failed=n, problems=[problem])

    if returncode is None:
        return all_wrong("timed out")
    if returncode not in (0, 1):
        return all_wrong(f"exit code {returncode}")
    try:
        reports = json.loads(stdout)
    except ValueError:
        return all_wrong("report is not JSON")
    if not isinstance(reports, list) or not all(
        isinstance(r, dict) and list(r) == REPORT_KEYS and r["status"] in ("pass", "fail")
        for r in reports
    ):
        return all_wrong("report objects do not have the pinned keys and statuses")
    got = Counter(f"{r['identity_id']}@{r['order']}" for r in reports)
    if got != Counter(expected):
        missing = Counter(expected) - got
        extra = got - Counter(expected)
        return all_wrong(f"checks differ from the seed commit: missing {dict(missing)}, extra {dict(extra)}")
    if returncode != (1 if any(r["status"] == "fail" for r in reports) else 0):
        return all_wrong(f"exit code {returncode} does not match the report statuses")

    result = CheckResult(attempted=n)
    for r in reports:
        if r["status"] == expected_status(r):
            continue
        result.wrong += 1
        if not is_known_defect(r):
            result.failed += 1
            result.problems.append(f"{r['identity_id']} {r['params']}: {r['status']}")
    return result
