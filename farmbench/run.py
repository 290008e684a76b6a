"""Farm-simulator benchmark: host time per simulated farm day.

Run from the root of a checkout::

    python3 farmbench/run.py --workload paper-weekday --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (and writes a Chrome trace of the run's spans).
Either way a human-readable report goes to standard output, a JSON
report with machine metadata to ``farmbench/out/``, and the last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (simulated days) and ``metrics``.  See farmbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

import measure
from measure import (
    SIM_STAT_KEYS, fig8_error_pp, peak_rss_mib, sim_digest, tail_percentile,
)
from spans import layer_totals, write_chrome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

UNITS = {
    "setup_s": "s",
    "day_s_p50": "s",
    "vm_intervals_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
#: Per-layer metrics of a traced run; "/day" means per simulated day.
LAYER_UNITS = {
    "traces.ensemble_s": "s/day",
    "traces.edges": "count/day",
    "farm.init_s": "s/day",
    "core.plan_consolidation_s": "s/day",
    "core.plan_exchanges_s": "s/day",
    "core.decide_activation_s": "s/day",
    "core.reroute_activation_s": "s/day",
    "core.plan_consolidation_calls": "count/day",
    "core.decide_activation_calls": "count/day",
    "core.vacations_planned": "count/day",
    "core.migrations_planned": "count/day",
    "core.exchanges_planned": "count/day",
    "core.share": "fraction",
    "ledger.s": "s/day",
    "ledger.calls": "count/day",
    "engine.self_s": "s/day",
    "engine.events": "count/day",
    "engine.us_per_event": "us",
    "faults.migration_aborts": "count/day",
    "faults.wake_retries": "count/day",
    "faults.wake_give_ups": "count/day",
    "faults.page_fetch_timeouts": "count/day",
    "zones.controller_s": "s/day",
    "runner.fanout_s": "s/day",
    "runner.worker_utilization": "fraction",
    "runner.ensemble_cache_hits": "count/day",
    "runner.straggler_ratio": "ratio",
    "zones.aggregate_s": "s/day",
    "validate.s": "s/day",
    "trace.overhead_frac": "fraction",
}
PLANNER = (
    "core.plan_consolidation",
    "core.plan_exchanges",
    "core.decide_activation",
    "core.reroute_activation",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def layer_metrics(m) -> dict:
    """Per-layer metrics of a traced measurement, per simulated day
    (ratios excepted); 0 for a layer the workload does not run."""
    totals = layer_totals(m.recorder.spans)
    days = max(m.days, 1)

    def seconds(name):
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    counts = m.counts
    run_s = seconds("farm.run")
    planner_s = sum(seconds(name) for name in PLANNER)
    events = counts["engine.events"]
    metrics = {
        "traces.ensemble_s": seconds("traces.ensemble") / days,
        "traces.edges": counts["traces.edges"] / days,
        "farm.init_s": seconds("farm.init") / days,
    }
    for name in PLANNER:
        metrics[f"{name}_s"] = seconds(name) / days
    metrics.update({
        "core.plan_consolidation_calls": calls("core.plan_consolidation") / days,
        "core.decide_activation_calls": calls("core.decide_activation") / days,
        "core.vacations_planned": counts["core.vacations_planned"] / days,
        "core.migrations_planned": counts["core.migrations_planned"] / days,
        "core.exchanges_planned": counts["core.exchanges_planned"] / days,
        "core.share": planner_s / run_s if run_s else 0.0,
        "ledger.s": seconds("ledger") / days,
        "ledger.calls": calls("ledger") / days,
        "engine.self_s": self_s("farm.run") / days,
        "engine.events": events / days,
        "engine.us_per_event": (
            1e6 * self_s("farm.run") / events if events else 0.0
        ),
    })
    for name in ("migration_aborts", "wake_retries", "wake_give_ups",
                 "page_fetch_timeouts"):
        metrics[f"faults.{name}"] = counts[f"faults.{name}"] / days
    metrics.update({
        "zones.controller_s": seconds("zones.controller") / days,
        "runner.fanout_s": seconds("runner.fanout") / days,
        "runner.worker_utilization": (
            median(m.utilization) if m.utilization else 0.0
        ),
        "runner.ensemble_cache_hits": (
            counts["runner.ensemble_cache_hits"] / days
        ),
        "runner.straggler_ratio": (
            median(m.stragglers) if m.stragglers else 0.0
        ),
        "zones.aggregate_s": self_s("zones.controller") / days,
        "validate.s": seconds("validate") / days,
        "trace.overhead_frac": (
            m.traced_seconds / m.day_seconds - 1.0 if m.day_seconds else 0.0
        ),
    })
    return metrics


def end_to_end(m) -> dict:
    return {
        "setup_s": median(m.setup_samples),
        "day_s_p50": median(m.day_samples),
        "vm_intervals_per_s": m.vm_intervals / m.day_seconds,
        "peak_rss_mib": peak_rss_mib(m.workers),
    }


def sim_report(m) -> dict:
    rows = {
        policy: {
            key: sum(day[key] for day in days) / len(days)
            for key in SIM_STAT_KEYS
        }
        for policy, days in m.sim_days.items()
    }
    report = {
        "rounds": m.workload.stat_rounds,
        "per_policy_mean": rows,
        "digest": sim_digest(rows),
    }
    if m.workload.name == "paper-weekday":
        report["fig8_err_pp"] = fig8_error_pp(
            {policy: row["savings_fraction"] for policy, row in rows.items()}
        )
    return report


def _print_report(m, metrics, extra, sim) -> None:
    print(f"workload {m.workload.name}  seed {m.seed}  trace {int(m.trace)}  "
          f"rounds {m.rounds}  simulated days {m.days}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  day samples (rounds)             {len(m.day_samples):14d}")
    tail = tail_percentile(m.day_samples)
    if tail is not None:
        print(f"  day_s_p{tail[0]:<26d} {tail[1]:14.6g} s")
    for name, value in extra.items():
        print(f"  {name:32s} {value}")
    print(f"  days_failed / days_attempted     "
          f"{m.tally.failed} / {m.tally.attempted}")
    print(f"  simulated statistics over the first {sim['rounds']} rounds "
          f"(digest {sim['digest']}):")
    for policy, row in sorted(sim["per_policy_mean"].items()):
        cells = "  ".join(f"{key}={value:.6g}" for key, value in row.items())
        print(f"    {policy}: {cells}")
    for policy, error in sim.get("fig8_err_pp", {}).items():
        print(f"    fig8_err_pp {policy}: {error:+.2f}")
    for failure in m.tally.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("REPRO_DEBUG_INDEXES"):
        print("refusing to run: REPRO_DEBUG_INDEXES rescans the farm "
              "indexes every interval and would distort every time",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no simulator source under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from workloads import WORKLOADS, measure as run_workload
    from repro.obs.export import validate_chrome_trace

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    m = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    correct = m.tally.failed == 0 and m.days > 0
    e2e = end_to_end(m) if m.days else {}
    sim = sim_report(m)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}"
    )
    extra = {}
    if args.trace:
        layers = layer_metrics(m)
        trace_path = stem + ".chrome.json"
        document = write_chrome(m.recorder.spans, trace_path)
        extra["spans"] = validate_chrome_trace(document) // 2
        extra["chrome_trace"] = os.path.relpath(trace_path, ROOT)
        metrics, units = layers, LAYER_UNITS
    else:
        metrics, units = e2e, UNITS
    shown = {name: (value, units[name]) for name, value in metrics.items()}
    _print_report(m, shown, extra, sim)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "round_seeds": m.round_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": measure.metadata(ROOT),
        "days_attempted": m.tally.attempted,
        "days_failed": m.tally.failed,
        "failures": m.tally.failures,
        "setup_samples_s": m.setup_samples,
        "day_samples_s": m.day_samples,
        "end_to_end": e2e,
        "per_layer": layers if args.trace else None,
        "simulated": sim,
        **extra,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report {os.path.relpath(stem + '.json', ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
