"""Pure helpers: sample statistics, failure counting, simulated-time
statistics and run metadata.  Nothing here imports the simulator, so
the rules can be tested on plain numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MIN_TAIL",
    "tail_percentile",
    "straggler_ratio",
    "Tally",
    "SIM_STAT_KEYS",
    "sim_digest",
    "FIG8_WEEKDAY_SAVINGS",
    "fig8_error_pp",
    "peak_rss_mib",
    "cpu_count",
    "git_head",
    "metadata",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile above the median that keeps
    :data:`MIN_TAIL` samples strictly beyond it, as ``(p, value)``.

    Nearest-rank definition: the p-th percentile of n sorted samples is
    the ``ceil(p * n / 100)``-th smallest, so ``n - ceil(p * n / 100)``
    samples lie beyond it.  ``None`` when no p in 51..99 qualifies,
    which is the case for 20 samples or fewer.
    """
    count = len(samples)
    ordered = sorted(samples)
    for p in range(99, 50, -1):
        rank = math.ceil(p * count / 100)
        if rank >= 1 and count - rank >= MIN_TAIL:
            return p, ordered[rank - 1]
    return None


def straggler_ratio(run_wall_max_s: float, run_wall_mean_s: float) -> float:
    """Slowest shard over the mean shard: the factor by which the
    slowest part stretches a fan-out past its average part."""
    if run_wall_mean_s <= 0.0:
        raise ValueError("straggler ratio needs a positive mean wall time")
    return run_wall_max_s / run_wall_mean_s


@dataclass
class Tally:
    """Days attempted and failed.  A day counts once as failed, however
    many of its checks fail; every failure message is kept.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    _day_failed: bool = False

    def begin_day(self) -> None:
        self.attempted += 1
        self._day_failed = False

    def fail(self, where: str, reason: str) -> None:
        self.failures.append(f"{where}: {reason}")
        if not self._day_failed:
            self._day_failed = True
            self.failed += 1

    def check(self, where: str, condition: bool, reason: str) -> None:
        if not condition:
            self.fail(where, reason)

    def guard(self, where: str, error: BaseException) -> None:
        """Record an exception raised by a day (with its traceback)."""
        traceback.print_exception(error, file=sys.stderr)
        self.fail(where, f"{type(error).__name__}: {error}")


#: Simulated-time statistics reported per workload and policy.
SIM_STAT_KEYS = (
    "savings_fraction",
    "full_migrations",
    "partial_migrations",
    "reintegrations",
    "home_wakeups",
    "network_mib",
)


def sim_digest(rows: Mapping[str, Mapping[str, float]]) -> str:
    """SHA-256 (first 16 hex digits) of the per-policy statistics.

    ``repr`` keeps every float digit, so a change that moves any
    statistic at all changes the digest.
    """
    canonical = json.dumps(
        {policy: {key: repr(value) for key, value in sorted(row.items())}
         for policy, row in sorted(rows.items())},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: The paper's weekday Figure 8 savings at four consolidation hosts, as
#: quoted in EXPERIMENTS.md (the paper gives no number for the others).
FIG8_WEEKDAY_SAVINGS = {"OnlyPartial": 0.06, "FulltoPartial": 0.28}


def fig8_error_pp(savings: Mapping[str, float]) -> Dict[str, float]:
    """Signed error in percentage points against the quoted values."""
    return {
        policy: 100.0 * (savings[policy] - paper)
        for policy, paper in FIG8_WEEKDAY_SAVINGS.items()
        if policy in savings
    }


def peak_rss_mib(workers: int = 0) -> float:
    """Peak resident set of this process, plus ``workers`` times the
    largest peak of any waited-for child.

    The kernel keeps only the largest child peak, so with workers this
    is an upper bound on the sum of their peaks.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + workers * child_kib) / 1024.0


def cpu_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_head(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git work tree."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: str) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": cpu_count(),
        "git_head": git_head(root),
    }
