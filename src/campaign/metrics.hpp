#pragma once

// Campaign metrics: one JSONL record per cell, plus the aggregator that
// folds records back into Table-1/Table-2-shaped verdict grids.
//
// The record format is append-friendly (one self-contained line per cell,
// flushed as each cell completes) so a killed campaign leaves a readable
// prefix, and resume can trust every complete line. Records are rendered
// through support/jsonl.hpp with a fixed field order, making a record's
// bytes a pure function of its field values — the basis of the
// shard-invariance guarantee (--shards 1 and --shards 4 produce identical
// files once canonically ordered). Wall time is a measurement, not
// semantics: it is only emitted when timings are explicitly enabled, and
// the default records stay byte-identical across runs and machines.

#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "core/computability.hpp"
#include "runtime/comm_model.hpp"

namespace anonet::campaign {

// Everything recorded about one cell. String axes hold the slug() spellings
// so records round-trip through JSONL without enum knowledge.
struct CellRecord {
  int cell = -1;      // Cell::index in expansion order
  std::string key;    // Cell::key(): the resume identity
  std::string suite;
  std::string agent;
  std::string model;
  std::string knowledge;
  std::string function;
  std::string schedule;
  int variant = 0;
  int n = 0;
  std::uint64_t seed = 0;
  // Channel policy coordinate (0 = off; -1 = metered; B > 0 = bounded).
  // Only emitted (with `bits`) when non-zero, so channel-off records stay
  // byte-identical to the pre-bandwidth format.
  std::int64_t bandwidth_bits = 0;
  // Perturbation coordinates (slug spellings). Only emitted when off their
  // defaults ("sync" / "none"), so unperturbed records keep their bytes.
  std::string starts;
  std::string faults;

  // "ok": the simulation ran to a verdict (success or not).
  // "failed": an exception escaped the cell (reason = what()).
  // "timeout": the cell's wall-clock deadline tripped (reason = budget and
  //            rounds reached) — a resource verdict, distinct from "failed".
  // "bandwidth_exceeded": a bounded channel rejected a message over budget
  //            (reason = message vs budget bits) — a model verdict: the
  //            algorithm does not fit the channel, nothing crashed.
  // "expected_failure": a perturbed cell broke (unsuccessfully converged or
  //            timed out) exactly as its agent's FaultTolerance claim
  //            predicts (reason = which perturbations exceed the claim).
  // "skipped": inadmissible or open cell (reason = diagnosis).
  std::string verdict = "ok";
  std::string reason;
  // The wall-clock budget (ms) behind a "timeout" verdict; resume re-attempts
  // the cell when the current budget exceeds it. 0 = no deadline recorded.
  double deadline_ms = 0.0;
  // The FaultTolerance table predicted this cell to break. True on every
  // "expected_failure", and on the rare "ok" that contradicts the table
  // (the CLI treats that mismatch as a campaign failure).
  bool predicted = false;

  bool success = false;  // δ2: final error within the cell's tolerance
  bool exact = false;    // δ0: outputs stabilized exactly on f(v)
  int stabilization_round = -1;
  // Sup-distance of the final outputs from the ground truth f(v).
  double error = std::numeric_limits<double>::quiet_NaN();
  std::int64_t rounds = 0;    // rounds actually run (<= the cell's budget)
  std::int64_t messages = 0;  // arena deliveries, self-loops included
  std::int64_t bits = -1;     // measured bits sent (metered cells; else -1)
  std::string mechanism;      // algorithm the cell ran (or skip reason class)
  double wall_ms = -1.0;      // < 0 = not recorded
};

// Thread-safe JSONL writer. append() serializes under a mutex, so concurrent
// shard workers interleave whole lines only. The flush policy is single:
// every record is flushed before append() returns. Once append() returns,
// the cell is durably acknowledged, and a crash (or a killed worker process
// in a distributed run, src/net/) can never lose a cell the coordinator
// already counted. There is deliberately no batching interval — every
// record carries a verdict, and a second, weaker policy for a hypothetical
// verdict-less path would only invite the two to drift apart.
class MetricsSink {
 public:
  // Opens `path` for append (resume keeps finished cells) or truncation.
  // Throws std::runtime_error when the file cannot be opened.
  MetricsSink(std::string path, bool include_timings, bool append);
  ~MetricsSink();

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  void append(const CellRecord& record);
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }

  // One record rendered to a single JSON line (no trailing newline), fields
  // in the fixed order the parser and the docs describe.
  [[nodiscard]] static std::string to_json(const CellRecord& record,
                                           bool include_timings);

  // Parses a line this writer produced. Returns nullopt for any line that
  // to_json(record, true) does not render back byte for byte (malformed,
  // truncated, or holding a value that does not parse), so resume
  // recomputes those cells. A retired `payload` field is ignored.
  [[nodiscard]] static std::optional<CellRecord> parse_line(
      const std::string& line);

  // All parseable records of a JSONL file; missing file = empty. Malformed
  // lines (e.g. a truncated tail after a crash) are silently dropped.
  [[nodiscard]] static std::vector<CellRecord> read_file(
      const std::string& path);

  // Rewrites `path` with the records sorted by (cell index, key) — the
  // canonical form compared across shard counts and sharding policies.
  // Duplicate keys keep the first occurrence. Throws std::runtime_error on
  // I/O failure.
  static void write_canonical(const std::string& path,
                              std::vector<CellRecord> records,
                              bool include_timings);

 private:
  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
  bool include_timings_;
};

// A measured verdict grid with the paper's grid beside it. Rows are
// knowledge levels, columns communication models (Table 1: four columns,
// Table 2: three).
struct TableComparison {
  std::string suite;
  std::vector<Knowledge> rows;
  std::vector<CommModel> cols;
  std::vector<std::vector<std::string>> measured;  // label per (row, col)
  std::vector<std::vector<std::string>> paper;     // expected label
  std::vector<std::vector<bool>> open;  // paper leaves the cell open ("?")
  // Every non-open cell measured == paper, and every open cell skipped.
  bool all_match = false;
};

// Folds "table1"/"table2" records into the strongest-computable-class label
// per (knowledge, model): exact stabilization of max (set-based), average
// (frequency-based) and sum (multiset-based) over every panel/input set,
// with "frequency-based*" for asymptotic-only average under Table 2 rules.
// Cells whose records are all skipped get the label "skipped".
[[nodiscard]] TableComparison compare_table(
    const std::vector<CellRecord>& records, const std::string& suite);

// Printable side-by-side rendering for CLI and bench output.
[[nodiscard]] std::string render_table(const TableComparison& table);

// The pass rule for a finished run's records, shared by anonet_campaign,
// the anonet_node coordinator and bench/campaign: no cell "failed", no
// predicted breakdown succeeded, and, when `complete` (the records cover
// the whole grid), every table1/table2 suite present matches the paper.
// A shard's tables are compared but do not gate.
struct RunVerdict {
  int failed = 0;
  std::vector<std::string> predicted_successes;  // keys, in record order
  std::vector<TableComparison> tables;  // table1, table2 (those present)
  bool tables_gate = false;  // complete, with at least one table suite
  bool tables_match = true;  // every entry of `tables` matches the paper
  bool passed = false;
};

[[nodiscard]] RunVerdict judge_run(const std::vector<CellRecord>& records,
                                   bool complete);

}  // namespace anonet::campaign
