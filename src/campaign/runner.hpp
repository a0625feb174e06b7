#pragma once

// Sharded campaign execution (docs/campaign.md).
//
// The runner turns an expanded grid into JSONL records. Parallelism is
// *between* cells only: the worker pool shards cells one per block, and
// every cell constructs its Executor with threads = 1, so agents that do
// not declare kParallelSafe stay legal and each cell's round sequence is
// bit-identical to a standalone serial run. A cell is a closed failure
// domain — an exception inside it (executor validation, numeric trouble,
// bad schedule) becomes a verdict "failed" record with the exception text,
// and the campaign keeps going.
//
// Sharding and resume compose through the cell index and key: a cell runs
// in shard `index % shards`, and a cell whose key already appears in the
// output file is reused, not recomputed — except a "timeout" record facing
// a larger budget, which is re-attempted. After a run the output file is
// rewritten in canonical (cell-index) order, so the concatenation of all
// shards' files — or the same campaign resumed any number of times — is
// byte-identical to a single-shard run. start_campaign / finish_campaign
// hold that lifecycle for both campaign executors, this runner and the
// socket coordinator (net/coordinator.hpp), which takes these same options.
// start_campaign also decides the work order: its pending cells come most
// expensive first (by campaign/cost_model.hpp's static estimate), and both
// executors consume them front to back; they differ only in how a cell is
// run.
//
// Inside one process, pending cells are consumed work-stealing style: the
// worker pool claims cells one at a time in that order, so the most
// expensive cell starts first and a slow cell can pin at most the one
// worker that claimed it. With a per-cell wall-clock deadline
// (`cell_timeout_ms`), even a hung cell ends as a "timeout" record instead
// of blocking the campaign.

#include <memory>
#include <string>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/spec.hpp"

namespace anonet::campaign {

struct RunnerOptions {
  int shards = 1;       // total shard count (>= 1)
  int shard_index = 0;  // this process's shard in [0, shards)
  int threads = 1;      // worker threads; cells stay serial internally
  bool include_timings = false;  // emit wall_ms (breaks byte-reproducibility)
  bool resume = true;   // reuse finished cells found in out_path
  std::string out_path; // JSONL output; empty = return records only

  // Wall-clock deadline applied to every cell that does not carry its own
  // Cell::timeout_ms (<= 0: none). A tripped deadline becomes a "timeout"
  // record, a failure class distinct from "failed".
  double cell_timeout_ms = 0.0;
  // Channel policy applied to every cell that does not carry its own
  // Cell::bandwidth_bits (0 = channel off, -1 = metered, B > 0 = bounded).
  // Unlike cell_timeout_ms this is a *coordinate* override: it changes the
  // affected cells' keys (and so their resume identity), because a bounded
  // run answers a different question than an unbounded one. A message over
  // a bounded budget becomes a "bandwidth_exceeded" record, distinct from
  // both "failed" and "timeout".
  std::int64_t bandwidth_bits = 0;
};

// Applies campaign-level overrides to an expanded cell list: cells without
// their own deadline get `cell_timeout_ms`, cells without their own channel
// policy get `bandwidth_bits` (the latter changes the affected cells' keys —
// see RunnerOptions::bandwidth_bits). Shared by the in-process Runner and
// the socket transport (net::Coordinator / net::WorkerNode), so both ends
// of the wire derive identical keys from identical options. Throws
// check_bandwidth_override's error first.
void apply_cell_overrides(std::vector<Cell>& cells, double cell_timeout_ms,
                          std::int64_t bandwidth_bits);

// Throws std::invalid_argument on a campaign bandwidth below -1, as
// Grid::expand does for a Spec's.
void check_bandwidth_override(std::int64_t bandwidth_bits);

// A campaign between its start and its canonical finish.
struct CampaignRun {
  std::vector<Cell> pending;          // unfinished owned cells, work order
  std::unique_ptr<MetricsSink> sink;  // open on out_path; null without one
  std::vector<CellRecord> kept;       // reused records of owned cells
  std::vector<CellRecord> foreign;    // records of cells this run does not own
};

// Throws std::invalid_argument unless shards >= 1 and shard_index is in
// [0, shards): the check both campaign executors make on construction.
void check_shard(const RunnerOptions& options);

// Expands the grid with the options' overrides, takes the cells of shard
// `shard_index` (index % shards), resumes from out_path (reusing a finished
// cell's record, re-anchored to this expansion), orders the rest by
// descending static estimate (ties by index), and opens the sink. The
// caller runs `pending` front to back and appends each fresh record to
// `sink`. The shard fields must pass check_shard.
[[nodiscard]] CampaignRun start_campaign(const Grid& grid,
                                         const RunnerOptions& options);

// The canonical finish: returns kept + fresh records sorted by (cell index,
// key) and, with an output file, rewrites it canonically with the foreign
// records merged in.
[[nodiscard]] std::vector<CellRecord> finish_campaign(
    CampaignRun run, std::vector<CellRecord> fresh,
    const RunnerOptions& options);

class Runner {
 public:
  // Throws std::invalid_argument on an inconsistent shard spec.
  explicit Runner(RunnerOptions options);

  // Expands, shards, resumes, runs, and canonicalizes. Returns this shard's
  // records (reused and fresh) sorted by cell index.
  std::vector<CellRecord> run(const Grid& grid) const;

  // Runs one cell synchronously. Never throws: inadmissible cells return
  // "skipped" records, exceptions "failed" ones. `record_wall_time` fills
  // wall_ms (a measurement — off for byte-reproducible campaigns).
  [[nodiscard]] static CellRecord run_cell(const Cell& cell,
                                           bool record_wall_time = false);

 private:
  RunnerOptions options_;
};

}  // namespace anonet::campaign
