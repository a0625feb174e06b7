#!/usr/bin/env python3
"""CI perf smoke gates over BENCH_executor.json and BENCH_campaign.json.

Two ratio gates, each comparing runs made on the same host by the same
binary, so neither depends on how fast the host is:

  - Executor: fails when the pooled round engine at n = 10^4 is slower than
    the serial engine by more than the tolerance — i.e. the persistent-worker
    pool must never cost throughput on a multi-core host. Skipped when the
    host reports a single hardware thread: with no parallelism available the
    pooled path degenerates to the serial one plus pool bookkeeping, and a
    throughput comparison measures the host, not the code.
  - Campaign: fails when the table2 suite's summed cell time exceeds the
    table1 suite's by more than MAX_TABLE2_OVER_TABLE1. Table 2's
    history-tree cells solve their class relations every round; this keeps
    that solve from growing back into the dominant cost of the tables grid.

Intended to run against freshly generated files (scripts/bench.sh), not the
committed snapshots, so the gates measure the checkout under test.

Usage: scripts/perf_smoke.py [BENCH_executor.json [BENCH_campaign.json]]
"""

import json
import sys

TOLERANCE = 0.10  # pooled may trail serial by at most 10%
N_GATE = 10000
MAX_TABLE2_OVER_TABLE1 = 4.0


def executor_gate(bench, path) -> bool:
    hardware_threads = bench.get("hardware_threads", 1)
    if hardware_threads <= 1:
        print(
            f"perf_smoke: host has {hardware_threads} hardware thread(s); "
            "pooled-vs-serial comparison is meaningless here — skipping"
        )
        return True

    serial = [
        row
        for row in bench["results"]
        if row["engine"] == "serial" and row["n"] == N_GATE
    ]
    pooled = [
        row
        for row in bench["results"]
        if row["engine"] == "pooled"
        and row["n"] == N_GATE
        and row.get("grain", 0) == 0
        and row["threads"] <= hardware_threads
    ]
    if not serial or not pooled:
        print(
            f"perf_smoke: no serial/pooled rows at n={N_GATE} in {path}; "
            "regenerate with scripts/bench.sh"
        )
        return False

    serial_rps = max(row["rounds_per_sec"] for row in serial)
    best = max(pooled, key=lambda row: row["rounds_per_sec"])
    floor = serial_rps * (1.0 - TOLERANCE)

    print(
        f"perf_smoke: n={N_GATE} serial {serial_rps:.0f} rounds/s, best "
        f"pooled {best['rounds_per_sec']:.0f} rounds/s at "
        f"{best['threads']} threads (floor {floor:.0f})"
    )
    if best["rounds_per_sec"] < floor:
        print(
            "perf_smoke: FAIL — pooled engine regressed below "
            f"{(1.0 - TOLERANCE):.0%} of serial throughput"
        )
        return False
    return True


def campaign_gate(bench, path) -> bool:
    cell_ms = {
        row["suite"]: row.get("cell_ms")
        for row in bench["results"]
        if row["suite"] in ("table1", "table2")
    }
    if not cell_ms.get("table1") or cell_ms.get("table2") is None:
        print(
            f"perf_smoke: no table1/table2 cell_ms in {path}; "
            "regenerate with scripts/bench.sh"
        )
        return False

    ratio = cell_ms["table2"] / cell_ms["table1"]
    print(
        f"perf_smoke: summed cell time table2 {cell_ms['table2']} ms, "
        f"table1 {cell_ms['table1']} ms, ratio {ratio:.2f} "
        f"(ceiling {MAX_TABLE2_OVER_TABLE1:.1f})"
    )
    if ratio > MAX_TABLE2_OVER_TABLE1:
        print(
            "perf_smoke: FAIL — table2 cells cost more than "
            f"{MAX_TABLE2_OVER_TABLE1:.0f}x table1's"
        )
        return False
    return True


def main() -> int:
    executor_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_executor.json"
    campaign_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_campaign.json"
    ok = True
    for path, gate in ((executor_path, executor_gate),
                       (campaign_path, campaign_gate)):
        with open(path, encoding="utf-8") as fh:
            ok = gate(json.load(fh), path) and ok
    if not ok:
        return 1
    print("perf_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
