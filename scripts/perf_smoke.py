#!/usr/bin/env python3
"""CI perf smoke gates over BENCH_executor.json and BENCH_campaign.json.

Three ratio gates, each comparing runs made on the same host by the same
binary, so none depends on how fast the host is:

  - Executor: fails when the pooled round engine is slower than the serial
    engine by more than the tolerance — i.e. the persistent-worker pool must
    never cost throughput on a multi-core host. Checked on the scalar
    Push-Sum ring at n = 10^4 (messages copied into the arena) and on the
    two frequency engines at n = 10^5 on fresh random graphs (messages
    delivered by slot). On hosts with at least FLOOR_THREADS hardware
    threads each row must instead reach its floor in EXECUTOR_GATES: 1.5
    times serial on the ring, and 2 times on the frequency rows, which draw
    a fresh round graph every round that the pooled engine builds while the
    current round delivers. Every pooled row looks ahead, but the static
    ring lends one graph whose CSR and verdicts are built once, so its
    lookahead has nothing to hide. Skipped when the host reports a single
    hardware thread: with no parallelism available the pooled path
    degenerates to the serial one plus pool bookkeeping, and a throughput
    comparison measures the host, not the code.
  - Campaign: fails when the table2 suite's summed cell time exceeds the
    table1 suite's by more than MAX_TABLE2_OVER_TABLE1, which keeps the
    dynamic table from growing into the dominant cost of the tables grid.
  - History solve: fails when table2's history-tree cells take more than
    MAX_HISTORY_OVER_GOSSIP times the summed cell time of its set-gossip
    cells. bench/campaign times both sets in one serial pass, best of
    several runs per cell, because each side sums under 0.1 s and read
    1.56 once, against 0.78-1.05 otherwise, while pool neighbors ran. The
    history-tree agents solve their class relations every round; this
    keeps that solve from growing back, and reads it directly rather than
    through table1, whose own speed-ups would move the table2/table1
    ratio.

Intended to run against freshly generated files (scripts/bench.sh), not the
committed snapshots, so the gates measure the checkout under test.

Usage: scripts/perf_smoke.py [BENCH_executor.json [BENCH_campaign.json]]
"""

import json
import sys

TOLERANCE = 0.10  # below FLOOR_THREADS, pooled may trail serial by 10%
FLOOR_THREADS = 4
# (workload, n, floor) triples: each pooled row is gated against its serial
# row, and with FLOOR_THREADS hardware threads or more it must reach `floor`
# times serial. With 4 hardware threads the frequency rows ran 3.5x
# (Push-Sum) and 3.6x (Metropolis) serial in the snapshot taken with their
# floor, and the ring read 3.6x, 2.4x and 2.4x in three runs taken with
# its floor.
EXECUTOR_GATES = (("ring", 10000, 1.5), ("freq_pushsum", 100000, 2.0),
                  ("freq_metropolis", 100000, 2.0))
MAX_TABLE2_OVER_TABLE1 = 4.0
MAX_HISTORY_OVER_GOSSIP = 1.5


def executor_gate(bench, path) -> bool:
    hardware_threads = bench.get("hardware_threads", 1)
    if hardware_threads <= 1:
        print(
            f"perf_smoke: host has {hardware_threads} hardware thread(s); "
            "pooled-vs-serial comparison is meaningless here — skipping"
        )
        return True

    ok = True
    for workload, n, floor in EXECUTOR_GATES:
        ratio = floor if hardware_threads >= FLOOR_THREADS else 1.0 - TOLERANCE
        ok = pooled_gate(bench, path, workload, n, hardware_threads,
                         ratio) and ok
    return ok


def pooled_gate(bench, path, workload, n, hardware_threads, ratio) -> bool:
    rows = [
        row
        for row in bench["results"]
        if row["workload"] == workload and row["n"] == n
    ]
    serial = [row for row in rows if row["engine"] == "serial"]
    pooled = [
        row
        for row in rows
        if row["engine"] == "pooled" and row["threads"] <= hardware_threads
    ]
    if not serial or not pooled:
        print(
            f"perf_smoke: no serial/pooled {workload} rows at n={n} in "
            f"{path}; regenerate with scripts/bench.sh"
        )
        return False

    serial_rps = max(row["rounds_per_sec"] for row in serial)
    best = max(pooled, key=lambda row: row["rounds_per_sec"])
    floor = serial_rps * ratio

    print(
        f"perf_smoke: {workload} n={n} serial {serial_rps:.1f} rounds/s, "
        f"best pooled {best['rounds_per_sec']:.1f} rounds/s at "
        f"{best['threads']} threads (floor {floor:.1f})"
    )
    if best["rounds_per_sec"] < floor:
        print(
            f"perf_smoke: FAIL — pooled {workload} engine regressed below "
            f"{ratio:.0%} of serial throughput"
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


def history_gate(bench, path) -> bool:
    history = bench.get("table2_history_cell_ms")
    gossip = bench.get("table2_gossip_cell_ms")
    if history is None or not gossip:
        print(
            f"perf_smoke: no table2 history/gossip cell_ms in {path}; "
            "regenerate with scripts/bench.sh"
        )
        return False

    ratio = history / gossip
    print(
        f"perf_smoke: table2 summed cell time history-tree {history} ms, "
        f"set gossip {gossip} ms, ratio {ratio:.2f} "
        f"(ceiling {MAX_HISTORY_OVER_GOSSIP:.1f})"
    )
    if ratio > MAX_HISTORY_OVER_GOSSIP:
        print(
            "perf_smoke: FAIL — table2 history-tree cells cost more than "
            f"{MAX_HISTORY_OVER_GOSSIP:.1f}x its set-gossip cells"
        )
        return False
    return True


def main() -> int:
    executor_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_executor.json"
    campaign_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_campaign.json"
    ok = True
    for path, gate in ((executor_path, executor_gate),
                       (campaign_path, campaign_gate),
                       (campaign_path, history_gate)):
        with open(path, encoding="utf-8") as fh:
            ok = gate(json.load(fh), path) and ok
    if not ok:
        return 1
    print("perf_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
