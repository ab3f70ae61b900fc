#!/usr/bin/env python3
"""Compare the simulated outcomes of two sim_scale_bench JSON files.

    tools/sim_outcome_diff.py OLD.json NEW.json

Every row (point, protocol) of OLD must appear in NEW with the same
workload and the same deterministic outcome: traffic, matching steps,
latency, utilization, oracle verdicts, dynamics counts, the control plane
that ran it and whether its step counts are exact. Wall clocks, build
times and memory are measurements, not outcomes, and are not compared.
Prints one line per difference and exits 1 if there is any, 0 otherwise.
"""
import json
import sys

# Per point: the workload each row ran.
POINT_FIELDS = ("topology", "brokers", "clients", "subscriptions", "events", "rate_eps",
                "churn_rate_eps", "link_mtbf_seconds")
# Per (point, protocol) row: the simulated outcome.
ROW_FIELDS = ("control_plane", "steps_exact", "serial_parallel_identical", "events_published",
              "deliveries", "broker_messages", "client_messages", "bytes_on_wire",
              "total_matching_steps", "max_utilization", "mean_delivery_latency_ms",
              "overloaded", "oracle_sampled_fraction", "oracle_events_verified",
              "missing_deliveries", "spurious_deliveries", "duplicate_deliveries",
              "churn_subscribes", "link_outages")


def rows(path):
    with open(path) as f:
        data = json.load(f)
    points = {p["name"]: p for p in data["points"]}
    by_row = {(p["name"], r["protocol"]): r for p in data["points"] for r in p["protocols"]}
    return data.get("mode"), points, by_row


def main(argv):
    if len(argv) != 3:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_mode, old_points, old_rows = rows(argv[1])
    new_mode, new_points, new_rows = rows(argv[2])
    diffs = []
    if old_mode != new_mode:
        diffs.append(f"mode: {old_mode!r} -> {new_mode!r}")
    for name in sorted(old_points.keys() | new_points.keys()):
        if name not in new_points or name not in old_points:
            diffs.append(f"{name}: only in {'OLD' if name in old_points else 'NEW'}")
            continue
        for field in POINT_FIELDS:
            a, b = old_points[name].get(field), new_points[name].get(field)
            if a != b:
                diffs.append(f"{name}.{field}: {a!r} -> {b!r}")
    for key in sorted(old_rows.keys() | new_rows.keys()):
        label = "/".join(key)
        if key not in new_rows or key not in old_rows:
            diffs.append(f"{label}: only in {'OLD' if key in old_rows else 'NEW'}")
            continue
        for field in ROW_FIELDS:
            a, b = old_rows[key].get(field), new_rows[key].get(field)
            if a != b:
                diffs.append(f"{label}.{field}: {a!r} -> {b!r}")
    for line in diffs:
        print(line)
    compared = len(old_rows.keys() & new_rows.keys())
    print(f"sim_outcome_diff: {compared} rows compared, {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
