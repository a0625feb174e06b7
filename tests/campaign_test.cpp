// Tests for the campaign subsystem: grid expansion, capability filtering,
// the JSONL metrics round-trip, sharding/resume determinism, and the
// Table 1 aggregation. Suites are named so scripts/check.sh's TSan filter
// picks up the concurrency-sensitive ones (CampaignDeterminism,
// CampaignParallel) while the heavier end-to-end checks stay in Campaign.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/cost_model.hpp"
#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "support/jsonl.hpp"

namespace anonet::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "anonet_campaign_" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// FNV-1a over a run's canonical bytes: MetricsSink::to_json(record, false)
// plus '\n' for each record in Runner::run order, which is what
// `anonet_campaign --out` writes.
std::uint64_t canonical_digest(const std::vector<CellRecord>& records) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const CellRecord& record : records) {
    for (const char c : MetricsSink::to_json(record, false) + '\n') {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return hash;
}

// "Same verdicts" means byte-identical canonical records, so each preset
// grid's bytes are pinned.
void expect_pinned_bytes(const std::string& grid,
                         const std::vector<CellRecord>& records,
                         std::uint64_t pinned) {
  const std::uint64_t digest = canonical_digest(records);
  EXPECT_EQ(digest, pinned)
      << "the canonical bytes of grid '" << grid << "' changed (digest 0x"
      << std::hex << digest << "); a deliberate change must update the "
      << "pinned constant and say why in CHANGES.md";
}

// A one-cell grid around an explicit Spec block.
Grid single_spec_grid(Spec spec) {
  Grid grid;
  grid.add(std::move(spec));
  return grid;
}

Spec derived_spec() {
  Spec spec;
  spec.suite = "probe";
  spec.knowledges = {Knowledge::kNone};
  spec.functions = {FunctionKind::kAverage};
  spec.schedules = {ScheduleKind::kRandomStronglyConnected};
  spec.input_source = InputSource::kDerived;
  spec.sizes = {4};
  spec.seeds = {1};
  spec.rounds = 50;
  return spec;
}

// The records the RecordJsonRoundTrips* tests render; the parser's mutation
// check runs over the same lines.
CellRecord failed_record() {
  CellRecord record;
  record.cell = 42;
  record.key = "suite/agent/model/none/max/sched/n6/v1/s17";
  record.suite = "table2";
  record.agent = "auto";
  record.model = "outdegree-aware";
  record.knowledge = "leaders";
  record.function = "sum";
  record.schedule = "random-strong";
  record.variant = 2;
  record.n = 6;
  record.seed = 19;
  record.verdict = "failed";
  // Every escape json_escape writes, so the reader unescapes each one.
  record.reason =
      "quote \" backslash \\ newline \n return \r tab \t control \x02 done";
  record.success = true;
  record.exact = true;
  record.stabilization_round = 13;
  record.error = 0.125;
  record.rounds = 400;
  record.messages = 12345;
  record.mechanism = "per-value Push-Sum (Algorithm 1)";
  return record;
}

CellRecord bandwidth_record() {
  CellRecord record;
  record.cell = 7;
  record.key = "bw/freq-pushsum/outdegree-aware/none/average/random-strong/"
               "n6/v0/s1/b128";
  record.suite = "bw";
  record.verdict = "bandwidth_exceeded";
  record.bandwidth_bits = 128;
  record.bits = 4096;
  return record;
}

CellRecord perturbed_record() {
  CellRecord record;
  record.cell = 3;
  record.key = "faults/set-gossip/simple-broadcast/none/max/pref-churn/"
               "n8/v0/s1/fcrash";
  record.suite = "faults";
  record.starts = "sync";
  record.faults = "crash";
  record.verdict = "expected_failure";
  record.reason = "crash-stop outside the agent's tolerance claim";
  record.predicted = true;
  return record;
}

// Splits a one-line flat object rendered by to_json into its
// `"name":value` fields, in order.
std::vector<std::string> json_fields(const std::string& line) {
  std::vector<std::string> fields(1);
  bool in_string = false;
  for (std::size_t i = 1; i + 1 < line.size(); ++i) {
    const char c = line[i];
    if (in_string && c == '\\') {
      fields.back() += c;
      fields.back() += line[++i];
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (!in_string && c == ',') {
      fields.emplace_back();
      continue;
    }
    fields.back() += c;
  }
  return fields;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += fields[i];
  }
  return line + "}";
}

TEST(Campaign, ExpansionIsDeterministicWithStableIndices) {
  const std::vector<Cell> a = Grid::preset("smoke").expand();
  const std::vector<Cell> b = Grid::preset("smoke").expand();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  std::set<std::string> keys;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_EQ(a[i].key(), b[i].key());
    EXPECT_EQ(a[i].inputs, b[i].inputs);
    EXPECT_TRUE(keys.insert(a[i].key()).second) << a[i].key();
  }
}

TEST(Campaign, PresetNamesAllExpand) {
  for (const std::string& name : Grid::preset_names()) {
    EXPECT_FALSE(Grid::preset(name).expand().empty()) << name;
  }
  EXPECT_THROW(Grid::preset("nope"), std::invalid_argument);
}

TEST(Campaign, ExpandRejectsEmptyAxes) {
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kAuto};
  spec.sizes.clear();
  EXPECT_THROW(single_spec_grid(spec).expand(), std::invalid_argument);
  Spec no_seeds = derived_spec();
  no_seeds.agents = {AgentKind::kAuto};
  no_seeds.seeds.clear();
  EXPECT_THROW(single_spec_grid(no_seeds).expand(), std::invalid_argument);
}

// Cell::key() spells every coordinate with slug(), so two values of one
// enum sharing a slug would give distinct cells one key.
template <typename E>
void expect_distinct_slugs(std::initializer_list<E> values) {
  std::set<std::string_view> seen;
  for (const E value : values) {
    EXPECT_NE(slug(value), "?");
    EXPECT_TRUE(seen.insert(slug(value)).second) << slug(value);
  }
}

TEST(Campaign, EnumSlugsAreDistinct) {
  expect_distinct_slugs({AgentKind::kAuto, AgentKind::kSetGossip,
                         AgentKind::kFrequencyPushSum, AgentKind::kMetropolis});
  expect_distinct_slugs(
      {ScheduleKind::kStaticPanel, ScheduleKind::kRandomStronglyConnected,
       ScheduleKind::kRandomSymmetric, ScheduleKind::kRandomMatching,
       ScheduleKind::kTokenRing, ScheduleKind::kSpooner,
       ScheduleKind::kUnionRing, ScheduleKind::kGrowingGap,
       ScheduleKind::kPreferentialChurn, ScheduleKind::kGeometricChurn});
  expect_distinct_slugs(
      {FunctionKind::kMax, FunctionKind::kAverage, FunctionKind::kSum});
  expect_distinct_slugs(
      {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
       CommModel::kSymmetricBroadcast, CommModel::kOutputPortAware});
  expect_distinct_slugs({Knowledge::kNone, Knowledge::kUpperBound,
                         Knowledge::kExactSize, Knowledge::kLeaders});
  expect_distinct_slugs({StartsKind::kSynchronous, StartsKind::kStaggered,
                         StartsKind::kStraggler});
  expect_distinct_slugs({FaultsKind::kNone, FaultsKind::kCrash,
                         FaultsKind::kDrop, FaultsKind::kCrashDrop});
}

// Records carry each coordinate as its slug(), and resume and compare read
// them back through parse_line. Renders a skipped cell's record, checks that
// the line parses to the cell's key and re-renders byte for byte, and
// returns the parsed record.
CellRecord slug_round_trip(const Cell& cell) {
  Cell skipped = cell;
  skipped.admissible = false;
  skipped.skip_reason = "slug probe";
  const std::string line =
      MetricsSink::to_json(Runner::run_cell(skipped), false);
  const auto parsed = MetricsSink::parse_line(line);
  EXPECT_TRUE(parsed.has_value()) << line;
  if (!parsed) return {};
  EXPECT_EQ(parsed->key, cell.key());
  EXPECT_EQ(MetricsSink::to_json(*parsed, false), line);
  return *parsed;
}

TEST(Campaign, SlugParseRoundTrip) {
  for (AgentKind kind : {AgentKind::kAuto, AgentKind::kSetGossip,
                         AgentKind::kFrequencyPushSum, AgentKind::kMetropolis}) {
    Cell cell;
    cell.agent = kind;
    EXPECT_EQ(slug_round_trip(cell).agent, slug(kind));
  }
  for (ScheduleKind kind :
       {ScheduleKind::kStaticPanel, ScheduleKind::kRandomStronglyConnected,
        ScheduleKind::kRandomSymmetric, ScheduleKind::kRandomMatching,
        ScheduleKind::kTokenRing, ScheduleKind::kSpooner,
        ScheduleKind::kUnionRing, ScheduleKind::kGrowingGap,
        ScheduleKind::kPreferentialChurn, ScheduleKind::kGeometricChurn}) {
    Cell cell;
    cell.schedule = kind;
    EXPECT_EQ(slug_round_trip(cell).schedule, slug(kind));
  }
  for (FunctionKind kind :
       {FunctionKind::kMax, FunctionKind::kAverage, FunctionKind::kSum}) {
    Cell cell;
    cell.function = kind;
    EXPECT_EQ(slug_round_trip(cell).function, slug(kind));
  }
  for (CommModel model :
       {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
        CommModel::kSymmetricBroadcast, CommModel::kOutputPortAware}) {
    Cell cell;
    cell.model = model;
    EXPECT_EQ(slug_round_trip(cell).model, slug(model));
  }
  for (Knowledge knowledge : {Knowledge::kNone, Knowledge::kUpperBound,
                              Knowledge::kExactSize, Knowledge::kLeaders}) {
    Cell cell;
    cell.knowledge = knowledge;
    EXPECT_EQ(slug_round_trip(cell).knowledge, slug(knowledge));
  }
}

TEST(Campaign, ForbiddenPairingsBecomeSkippedRows) {
  // Push-Sum under simple broadcast: the canonical Table 1 forbidden cell.
  Spec pushsum = derived_spec();
  pushsum.agents = {AgentKind::kFrequencyPushSum};
  pushsum.models = {CommModel::kSimpleBroadcast};
  std::vector<Cell> cells = single_spec_grid(pushsum).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);
  EXPECT_NE(cells[0].skip_reason.find("outdegree"), std::string::npos)
      << cells[0].skip_reason;

  // Metropolis (kSymmetricOnly) on an asymmetric schedule.
  Spec metro = derived_spec();
  metro.agents = {AgentKind::kMetropolis};
  metro.models = {CommModel::kOutdegreeAware};
  metro.schedules = {ScheduleKind::kTokenRing};
  cells = single_spec_grid(metro).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);
  EXPECT_NE(cells[0].skip_reason.find("kSymmetricOnly"), std::string::npos)
      << cells[0].skip_reason;

  // Symmetric broadcast on an asymmetric schedule (model, not agent).
  Spec sym = derived_spec();
  sym.agents = {AgentKind::kSetGossip};
  sym.functions = {FunctionKind::kMax};
  sym.models = {CommModel::kSymmetricBroadcast};
  sym.schedules = {ScheduleKind::kTokenRing};
  cells = single_spec_grid(sym).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);

  // Output-port awareness on a dynamic schedule.
  Spec ports = derived_spec();
  ports.agents = {AgentKind::kAuto};
  ports.models = {CommModel::kOutputPortAware};
  cells = single_spec_grid(ports).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);
  EXPECT_NE(cells[0].skip_reason.find("static"), std::string::npos)
      << cells[0].skip_reason;

  // Function-class pinning: gossip computes set-based functions only.
  Spec gossip = derived_spec();
  gossip.agents = {AgentKind::kSetGossip};
  gossip.models = {CommModel::kSimpleBroadcast};
  gossip.functions = {FunctionKind::kSum};
  cells = single_spec_grid(gossip).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);
}

TEST(Campaign, TablesGridSkipsExactlyTheOpenCells) {
  // Table 2's two "?" pairings x 3 functions x 3 input sets = 18 open-skips.
  const std::vector<Cell> cells = Grid::preset("tables").expand();
  std::vector<Cell> open_skips;
  int other_skips = 0;
  for (const Cell& cell : cells) {
    if (cell.admissible) continue;
    if (cell.skip_reason.find("open in the paper") != std::string::npos) {
      open_skips.push_back(cell);
      EXPECT_EQ(cell.suite, "table2");
      EXPECT_EQ(cell.model, CommModel::kOutdegreeAware);
      EXPECT_TRUE(cell.knowledge == Knowledge::kNone ||
                  cell.knowledge == Knowledge::kLeaders);
    } else {
      ++other_skips;
    }
  }
  EXPECT_EQ(open_skips.size(), 18u);
  EXPECT_EQ(other_skips, 0);

  // The `open` preset measures exactly those cells, at their coordinates.
  const std::vector<Cell> open = Grid::preset("open").expand();
  ASSERT_EQ(open.size(), open_skips.size());
  for (std::size_t i = 0; i < open.size(); ++i) {
    const Cell& skipped = open_skips[i];
    EXPECT_EQ(open[i].suite, "open");
    EXPECT_TRUE(open[i].admissible) << open[i].skip_reason;
    EXPECT_EQ(open[i].agent, skipped.agent);
    EXPECT_EQ(open[i].model, skipped.model);
    EXPECT_EQ(open[i].knowledge, skipped.knowledge);
    EXPECT_EQ(open[i].function, skipped.function);
    EXPECT_EQ(open[i].schedule, skipped.schedule);
    EXPECT_EQ(open[i].variant, skipped.variant);
    EXPECT_EQ(open[i].inputs, skipped.inputs);
    EXPECT_EQ(open[i].seed, skipped.seed);
    EXPECT_EQ(open[i].rounds, skipped.rounds);
    EXPECT_EQ(open[i].tolerance, skipped.tolerance);
  }

  // What the Section 5 machinery achieves in the two '?' cells. No help:
  // max exact, average only asymptotically (frequency-based*), sum ruled
  // out. Leaders: all three exact (multiset-based).
  const std::vector<CellRecord> records =
      Runner(RunnerOptions{}).run(Grid::preset("open"));
  ASSERT_EQ(records.size(), 18u);
  for (const CellRecord& record : records) {
    EXPECT_EQ(record.verdict, "ok") << record.key << ": " << record.reason;
    if (record.knowledge == "leaders" || record.function == "max") {
      EXPECT_TRUE(record.exact) << record.key;
    } else if (record.function == "average") {
      EXPECT_TRUE(record.success) << record.key;
      EXPECT_FALSE(record.exact) << record.key;
    } else {
      EXPECT_FALSE(record.success) << record.key;
      EXPECT_EQ(record.mechanism.rfind("impossible", 0), 0u) << record.key;
    }
  }
}

TEST(Campaign, RunCellRecordsSkipsWithoutRunning) {
  Cell cell;
  cell.index = 7;
  cell.suite = "probe";
  cell.agent = AgentKind::kFrequencyPushSum;
  cell.model = CommModel::kSimpleBroadcast;
  cell.function = FunctionKind::kAverage;
  cell.inputs = {1, 2, 3, 4};
  cell.admissible = false;
  cell.skip_reason = "diagnosis text";
  const CellRecord record = Runner::run_cell(cell);
  EXPECT_EQ(record.verdict, "skipped");
  EXPECT_EQ(record.reason, "diagnosis text");
  EXPECT_EQ(record.mechanism, "(not run)");
  EXPECT_EQ(record.cell, 7);
  EXPECT_EQ(record.key, cell.key());
  EXPECT_EQ(record.rounds, 0);
}

TEST(Campaign, RunCellCapturesExceptionsAsFailedRecords) {
  // SpoonerSchedule requires n >= 3; an admissible-looking cell with two
  // agents makes the schedule constructor throw inside the runner.
  Cell cell;
  cell.index = 0;
  cell.suite = "probe";
  cell.agent = AgentKind::kSetGossip;
  cell.model = CommModel::kSimpleBroadcast;
  cell.function = FunctionKind::kMax;
  cell.schedule = ScheduleKind::kSpooner;
  cell.inputs = {1, 2};
  cell.rounds = 10;
  const CellRecord record = Runner::run_cell(cell);
  EXPECT_EQ(record.verdict, "failed");
  EXPECT_FALSE(record.reason.empty());
  EXPECT_FALSE(record.success);
}

TEST(Campaign, RunnerValidatesShardOptions) {
  RunnerOptions bad_shards;
  bad_shards.shards = 0;
  EXPECT_THROW(Runner{bad_shards}, std::invalid_argument);
  RunnerOptions bad_index;
  bad_index.shards = 2;
  bad_index.shard_index = 2;
  EXPECT_THROW(Runner{bad_index}, std::invalid_argument);
}

TEST(Campaign, JsonEscapingAndNumbers) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("nul\x01")), "nul\\u0001");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::nan("")), "\"nan\"");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
}

TEST(Campaign, RecordJsonRoundTripsThroughParseLine) {
  const CellRecord record = failed_record();
  const std::string line = MetricsSink::to_json(record, false);
  const auto parsed = MetricsSink::parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, record.cell);
  EXPECT_EQ(parsed->key, record.key);
  EXPECT_EQ(parsed->suite, record.suite);
  EXPECT_EQ(parsed->knowledge, record.knowledge);
  EXPECT_EQ(parsed->reason, record.reason);
  EXPECT_EQ(parsed->variant, record.variant);
  EXPECT_EQ(parsed->n, record.n);
  EXPECT_EQ(parsed->seed, record.seed);
  EXPECT_EQ(parsed->verdict, record.verdict);
  EXPECT_TRUE(parsed->success);
  EXPECT_TRUE(parsed->exact);
  EXPECT_EQ(parsed->stabilization_round, record.stabilization_round);
  EXPECT_EQ(parsed->error, record.error);
  EXPECT_EQ(parsed->rounds, record.rounds);
  EXPECT_EQ(parsed->messages, record.messages);
  EXPECT_EQ(parsed->mechanism, record.mechanism);
  // Re-rendering the parsed record reproduces the exact bytes.
  EXPECT_EQ(MetricsSink::to_json(*parsed, false), line);

  // The default NaN error survives as NaN (spelled "nan" on the wire).
  CellRecord nan_record = record;
  nan_record.error = std::numeric_limits<double>::quiet_NaN();
  const auto nan_parsed =
      MetricsSink::parse_line(MetricsSink::to_json(nan_record, false));
  ASSERT_TRUE(nan_parsed.has_value());
  EXPECT_TRUE(std::isnan(nan_parsed->error));
}

TEST(Campaign, ParseLineRejectsTruncatedLines) {
  CellRecord record;
  record.cell = 3;
  record.key = "k";
  record.verdict = "ok";
  record.mechanism = "text with \"quotes\"";
  const std::string line = MetricsSink::to_json(record, false);
  EXPECT_TRUE(MetricsSink::parse_line(line).has_value());
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(MetricsSink::parse_line(line.substr(0, len)).has_value())
        << "accepted truncation at " << len;
  }
  EXPECT_FALSE(MetricsSink::parse_line("not json").has_value());
  EXPECT_FALSE(MetricsSink::parse_line("{}").has_value());  // missing fields

  // Corrupt values fail closed. One byte of every integer, boolean and
  // double token is replaced in turn: the mutated line must be rejected, or
  // be exactly the line its record renders to. Dropping a field that
  // to_json always writes must be rejected.
  CellRecord nan_error = failed_record();
  nan_error.error = std::numeric_limits<double>::quiet_NaN();
  CellRecord timed = perturbed_record();
  timed.verdict = "timeout";
  timed.deadline_ms = 50.0;
  CellRecord measured = perturbed_record();
  measured.deadline_ms = 12.5;
  measured.wall_ms = 3.25;
  measured.error = std::numeric_limits<double>::infinity();
  std::set<std::string> always_written;
  for (const std::string& field :
       json_fields(MetricsSink::to_json(CellRecord{}, true))) {
    always_written.insert(field.substr(0, field.find("\":") + 1));
  }
  const auto faithful = [](const std::string& text) {
    const auto parsed = MetricsSink::parse_line(text);
    return !parsed.has_value() || MetricsSink::to_json(*parsed, true) == text;
  };
  for (const CellRecord& sample :
       {failed_record(), nan_error, bandwidth_record(), perturbed_record(),
        timed, measured}) {
    const std::string whole = MetricsSink::to_json(sample, true);
    ASSERT_TRUE(MetricsSink::parse_line(whole).has_value()) << whole;
    const std::vector<std::string> fields = json_fields(whole);
    ASSERT_EQ(join_fields(fields), whole);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::size_t value = fields[f].find("\":") + 2;
      std::vector<std::string> dropped = fields;
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(f));
      if (always_written.count(fields[f].substr(0, value - 1)) > 0) {
        EXPECT_FALSE(MetricsSink::parse_line(join_fields(dropped)).has_value())
            << join_fields(dropped);
      }
      EXPECT_TRUE(faithful(join_fields(dropped))) << join_fields(dropped);
      // Order is part of the format: a field swapped with its neighbour,
      // written twice, or under a misspelled key is rejected.
      std::vector<std::vector<std::string>> mutants;
      if (f + 1 < fields.size()) {
        mutants.push_back(fields);
        std::swap(mutants.back()[f], mutants.back()[f + 1]);
      }
      mutants.push_back(fields);
      mutants.back().insert(
          mutants.back().begin() + static_cast<std::ptrdiff_t>(f), fields[f]);
      mutants.push_back(fields);
      mutants.back()[f].insert(1, "x");  // "xname":value
      for (const std::vector<std::string>& mutant : mutants) {
        EXPECT_FALSE(MetricsSink::parse_line(join_fields(mutant)).has_value())
            << join_fields(mutant);
      }
      if (fields[f][value] == '"') continue;  // string values stay intact
      for (std::size_t at = value; at < fields[f].size(); ++at) {
        for (const char bad : {'x', '+', '-', '.'}) {
          std::vector<std::string> mutated = fields;
          mutated[f][at] = bad;
          EXPECT_TRUE(faithful(join_fields(mutated))) << join_fields(mutated);
        }
      }
    }
  }
  std::string bogus = MetricsSink::to_json(failed_record(), true);
  bogus.replace(bogus.find("\"error\":0.125") + 8, 5, "\"bogus\"");
  EXPECT_FALSE(MetricsSink::parse_line(bogus).has_value()) << bogus;
}

TEST(Campaign, SinkWritesReadableCanonicalFiles) {
  const std::string path = temp_path("sink.jsonl");
  CellRecord a;
  a.cell = 1;
  a.key = "k1";
  a.verdict = "ok";
  CellRecord b;
  b.cell = 0;
  b.key = "k0";
  b.verdict = "skipped";
  {
    MetricsSink sink(path, false, /*append=*/false);
    sink.append(a);
    sink.append(b);
  }
  std::vector<CellRecord> records = MetricsSink::read_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "k1");  // file order = append order

  // Canonical rewrite sorts by cell and drops duplicate cells (first wins).
  CellRecord dup = a;
  dup.verdict = "failed";
  records.push_back(dup);
  MetricsSink::write_canonical(path, records, false);
  records = MetricsSink::read_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "k0");
  EXPECT_EQ(records[1].key, "k1");
  EXPECT_EQ(records[1].verdict, "ok");

  EXPECT_TRUE(MetricsSink::read_file(temp_path("missing.jsonl")).empty());
  std::remove(path.c_str());
}

TEST(Campaign, Table1RunMatchesThePaper) {
  // The full static table: every admissible (model, knowledge, function,
  // panel) cell measured and folded back into the paper's verdict grid.
  const Runner runner{RunnerOptions{}};
  const std::vector<CellRecord> records =
      runner.run(Grid::preset("table1"));
  for (const CellRecord& record : records) {
    EXPECT_NE(record.verdict, "failed") << record.key << ": " << record.reason;
  }
  const TableComparison table = compare_table(records, "table1");
  EXPECT_TRUE(table.all_match) << render_table(table);
  expect_pinned_bytes("table1", records, 0x25e9a8dc602058a7ull);

  // Sabotaging the measurements must flip the verdict.
  std::vector<CellRecord> broken = records;
  for (CellRecord& record : broken) {
    if (record.function == "sum") {
      record.exact = false;
      record.success = false;
    }
  }
  EXPECT_FALSE(compare_table(broken, "table1").all_match);
  EXPECT_NE(render_table(compare_table(broken, "table1")).find("DIFFERS"),
            std::string::npos);
}

TEST(Campaign, Table2RunMatchesThePaper) {
  // The full dynamic table, history-tree cells included.
  const Runner runner{RunnerOptions{}};
  const std::vector<CellRecord> records =
      runner.run(Grid::preset("table2"));
  for (const CellRecord& record : records) {
    EXPECT_NE(record.verdict, "failed") << record.key << ": " << record.reason;
  }
  const TableComparison table = compare_table(records, "table2");
  EXPECT_TRUE(table.all_match) << render_table(table);
  expect_pinned_bytes("table2", records, 0x71be315f3f1c7075ull);

  // The history-tree cells (symmetric none/average, leaders/average and
  // leaders/sum) stabilize at the rounds recorded for input sets v0-v2.
  const std::vector<int> stabilization = {7, 5, 5};
  int history_cells = 0;
  for (const CellRecord& record : records) {
    if (record.mechanism.rfind("history-tree", 0) != 0) continue;
    ++history_cells;
    EXPECT_TRUE(record.exact) << record.key;
    EXPECT_EQ(record.stabilization_round,
              stabilization[static_cast<std::size_t>(record.variant)])
        << record.key;
  }
  EXPECT_EQ(history_cells, 9);
}

// Synthesized table2 records shaped exactly like the paper's grid.
std::vector<CellRecord> paper_shaped_table2_records() {
  const std::vector<Knowledge> rows = {Knowledge::kNone, Knowledge::kUpperBound,
                                       Knowledge::kExactSize,
                                       Knowledge::kLeaders};
  const std::vector<CommModel> cols = {CommModel::kSimpleBroadcast,
                                       CommModel::kOutdegreeAware,
                                       CommModel::kSymmetricBroadcast};
  const std::vector<std::vector<std::string>> labels = {
      {"set-based", "?", "frequency-based"},
      {"set-based", "frequency-based", "frequency-based"},
      {"set-based", "multiset-based", "multiset-based"},
      {"set-based", "?", "multiset-based"},
  };
  std::vector<CellRecord> records;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      for (const char* function : {"max", "average", "sum"}) {
        CellRecord record;
        record.cell = static_cast<int>(records.size());
        record.key = "cell" + std::to_string(record.cell);
        record.suite = "table2";
        record.knowledge = std::string(slug(rows[r]));
        record.model = std::string(slug(cols[c]));
        record.function = function;
        const std::string& label = labels[r][c];
        if (label == "?") {
          record.verdict = "skipped";
        } else {
          record.verdict = "ok";
          const std::string f = function;
          record.exact = (label == "multiset-based") ||
                         (label == "frequency-based" && f != "sum") ||
                         (label == "set-based" && f == "max");
          record.success = record.exact;
        }
        records.push_back(std::move(record));
      }
    }
  }
  return records;
}

TEST(Campaign, CompareTableRequiresOpenCellsSkipped) {
  const std::vector<CellRecord> records = paper_shaped_table2_records();
  const TableComparison table = compare_table(records, "table2");
  EXPECT_TRUE(table.all_match) << render_table(table);

  // An open cell that was measured instead of skipped is a mismatch even if
  // the measurement is impressive.
  std::vector<CellRecord> measured_open = records;
  for (CellRecord& record : measured_open) {
    if (record.knowledge == "none" && record.model == "outdegree-aware") {
      record.verdict = "ok";
      record.exact = true;
      record.success = true;
    }
  }
  EXPECT_FALSE(compare_table(measured_open, "table2").all_match);

  // Asymptotic-only average is the starred frequency label.
  std::vector<CellRecord> starred = records;
  for (CellRecord& record : starred) {
    if (record.knowledge == "upper-bound" &&
        record.model == "outdegree-aware" && record.function == "average") {
      record.exact = false;
      record.success = true;
    }
  }
  const TableComparison star = compare_table(starred, "table2");
  EXPECT_EQ(star.measured[1][1], "frequency-based*");
  EXPECT_FALSE(star.all_match);

  EXPECT_THROW(compare_table(records, "table9"), std::invalid_argument);
}

TEST(Campaign, JudgeRunAppliesOnePassRule) {
  const std::vector<CellRecord> table = paper_shaped_table2_records();
  const RunVerdict clean = judge_run(table, /*complete=*/true);
  EXPECT_TRUE(clean.passed);
  EXPECT_TRUE(clean.tables_gate);
  ASSERT_EQ(clean.tables.size(), 1u);
  EXPECT_EQ(clean.tables.front().suite, "table2");

  // One flipped `exact` still renders and resumes, but no longer matches
  // the paper: a complete run fails, a shard only reports it.
  std::vector<CellRecord> flipped = table;
  for (CellRecord& record : flipped) {
    if (record.knowledge == "exact-size" &&
        record.model == "outdegree-aware" && record.function == "sum") {
      record.exact = false;
    }
  }
  const RunVerdict complete = judge_run(flipped, /*complete=*/true);
  EXPECT_FALSE(complete.passed);
  EXPECT_FALSE(complete.tables_match);
  EXPECT_EQ(complete.failed, 0);
  const RunVerdict sharded = judge_run(flipped, /*complete=*/false);
  EXPECT_TRUE(sharded.passed);
  EXPECT_FALSE(sharded.tables_gate);
  ASSERT_EQ(sharded.tables.size(), 1u);
  EXPECT_FALSE(sharded.tables.front().all_match);

  // Timeouts and expected failures pass; no table suite, nothing to gate.
  CellRecord timeout;
  timeout.key = "faults/timeout";
  timeout.suite = "faults";
  timeout.verdict = "timeout";
  const CellRecord expected = perturbed_record();
  const RunVerdict resources = judge_run({timeout, expected}, true);
  EXPECT_TRUE(resources.passed);
  EXPECT_FALSE(resources.tables_gate);
  EXPECT_TRUE(resources.tables.empty());

  // A predicted breakdown that succeeded fails the run and is named.
  CellRecord predicted = expected;
  predicted.verdict = "ok";
  predicted.success = true;
  const RunVerdict surprise = judge_run({timeout, predicted}, true);
  EXPECT_FALSE(surprise.passed);
  EXPECT_EQ(surprise.predicted_successes,
            std::vector<std::string>{predicted.key});

  // A "failed" cell fails the run, whether or not the records are whole.
  CellRecord failed = timeout;
  failed.verdict = "failed";
  for (const bool whole : {true, false}) {
    const RunVerdict broken = judge_run({expected, failed}, whole);
    EXPECT_FALSE(broken.passed) << whole;
    EXPECT_EQ(broken.failed, 1) << whole;
  }
}

TEST(CampaignDeterminism, ShardedRunsProduceIdenticalFiles) {
  const std::string single = temp_path("single.jsonl");
  const std::string sharded = temp_path("sharded.jsonl");
  const Grid grid = Grid::preset("smoke");

  RunnerOptions one;
  one.out_path = single;
  one.resume = false;
  const std::vector<CellRecord> records = Runner(one).run(grid);
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].cell, records[i].cell);
  }

  // Four shards in turn against one shared file: each appends its cells and
  // canonically rewrites, so the final file equals the single-shard bytes.
  std::remove(sharded.c_str());
  for (int shard = 0; shard < 4; ++shard) {
    RunnerOptions options;
    options.shards = 4;
    options.shard_index = shard;
    options.out_path = sharded;
    Runner(options).run(grid);
  }
  const std::string a = read_bytes(single);
  const std::string b = read_bytes(sharded);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(single.c_str());
  std::remove(sharded.c_str());
}

TEST(CampaignDeterminism, ResumeReusesFinishedCells) {
  const std::string path = temp_path("resume.jsonl");
  const Grid grid = Grid::preset("smoke");
  RunnerOptions options;
  options.out_path = path;
  Runner(options).run(grid);
  const std::string complete = read_bytes(path);

  // Tamper with one finished record: a resumed run must trust and keep it
  // (proof the cell was not recomputed), while recomputing the cells whose
  // lines we drop.
  std::vector<CellRecord> records = MetricsSink::read_file(path);
  ASSERT_GE(records.size(), 4u);
  const std::string tampered_key = records[1].key;
  records[1].mechanism = "sentinel: must survive resume";
  records.resize(records.size() / 2);  // "crash": lose the tail
  MetricsSink::write_canonical(path, std::move(records), false);

  const std::vector<CellRecord> resumed = Runner(options).run(grid);
  bool sentinel_seen = false;
  for (const CellRecord& record : resumed) {
    if (record.key == tampered_key) {
      sentinel_seen = record.mechanism == "sentinel: must survive resume";
    }
  }
  EXPECT_TRUE(sentinel_seen);

  // A file written while records still carried the retired `payload` field
  // (right after `messages`) is not in the format: every such line is
  // recomputed (the sentinel is gone) and the file converges back to the
  // canonical bytes.
  std::istringstream complete_lines(complete);
  std::string line;
  std::string with_payload;
  for (int i = 0; std::getline(complete_lines, line); ++i) {
    auto record = MetricsSink::parse_line(line);
    ASSERT_TRUE(record.has_value());
    if (i == 1) record->mechanism = "sentinel: payload-era record";
    line = MetricsSink::to_json(*record, false);
    const std::size_t messages = line.find("\"messages\":");
    ASSERT_NE(messages, std::string::npos);
    line.insert(line.find(',', messages),
                ",\"payload\":" + std::to_string(7 * i));
    with_payload += line + "\n";
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << with_payload;
  }
  Runner(options).run(grid);
  EXPECT_EQ(read_bytes(path), complete);

  // A corrupt value is never imported: the line is recomputed and the file
  // converges back to the canonical bytes.
  std::string corrupt = complete;
  const std::size_t rounds = corrupt.find("\"rounds\":150");
  ASSERT_LT(rounds, corrupt.find('\n'));
  corrupt.replace(rounds + 9, 3, "1x0");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  Runner(options).run(grid);
  EXPECT_EQ(read_bytes(path), complete);

  // A half-written (truncated mid-line) file: the broken line is recomputed
  // and the final file converges back to the canonical bytes.
  std::string crashed = complete;
  crashed.resize(crashed.size() - complete.size() / 3);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << crashed;
  }
  Runner(options).run(grid);
  EXPECT_EQ(read_bytes(path), complete);
  std::remove(path.c_str());
}

TEST(CampaignParallel, ThreadedRunMatchesSerial) {
  const Grid grid = Grid::preset("smoke");
  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions threaded;
  threaded.threads = 4;
  const std::vector<CellRecord> a = Runner(serial).run(grid);
  const std::vector<CellRecord> b = Runner(threaded).run(grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(MetricsSink::to_json(a[i], false),
              MetricsSink::to_json(b[i], false))
        << a[i].key;
  }
}

TEST(Campaign, SinkIsDurablePerVerdictRecord) {
  // Remote-use contract (src/net/): an appended record is an acknowledged
  // cell and must be on disk the moment append() returns, so a worker
  // killed mid-stream (no close(), no destructor) never loses a cell its
  // coordinator already counted. Reading the file while the sink is still
  // open is exactly what a post-kill recovery would see — there is no
  // batching interval allowed to hold a record in the stream buffer, for
  // *any* verdict spelling (the old interval path only triggered for
  // verdict-bearing records and silently buffered the rest).
  const std::string path = temp_path("durable_sink.jsonl");
  MetricsSink sink(path, false, /*append=*/false);
  const char* verdicts[] = {"ok", "", "timeout", "expected_failure"};
  for (int i = 0; i < 4; ++i) {
    CellRecord record;
    record.cell = i;
    record.key = "cell-" + std::to_string(i);
    record.verdict = verdicts[i];
    sink.append(record);
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      if (!line.empty()) ++lines;
    }
    EXPECT_EQ(lines, static_cast<std::size_t>(i) + 1)
        << "record " << i << " (verdict '" << verdicts[i]
        << "') not flushed before the next cell starts";
  }
  // Resume against the mid-stream file: every acknowledged record is
  // parseable and reusable, and new appends extend rather than clobber.
  {
    MetricsSink resumed(path, false, /*append=*/true);
    CellRecord record;
    record.cell = 4;
    record.key = "cell-4";
    resumed.append(record);
  }
  const std::vector<CellRecord> records = MetricsSink::read_file(path);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().key, "cell-0");
  EXPECT_EQ(records.back().key, "cell-4");
  sink.close();
  std::remove(path.c_str());
}

TEST(CampaignCost, StaticEstimatesOrderMechanismsSensibly) {
  Cell skipped;
  skipped.inputs = {1, 2, 3, 4, 5, 6};
  skipped.admissible = false;
  Cell gossip = skipped;
  gossip.admissible = true;
  gossip.agent = AgentKind::kSetGossip;
  gossip.function = FunctionKind::kMax;
  Cell minbase = gossip;
  minbase.agent = AgentKind::kAuto;
  minbase.function = FunctionKind::kAverage;
  minbase.model = CommModel::kOutdegreeAware;
  Cell history = minbase;
  history.model = CommModel::kSymmetricBroadcast;
  history.knowledge = Knowledge::kNone;
  history.schedule = ScheduleKind::kRandomSymmetric;
  EXPECT_LT(static_estimate(skipped), static_estimate(gossip));
  EXPECT_LT(static_estimate(gossip), static_estimate(minbase));
  EXPECT_LT(static_estimate(minbase), static_estimate(history));
}

TEST(CampaignCost, OrderIsACostDescendingPermutation) {
  // start_campaign hands both executors their work order: a permutation of
  // the grid, by descending static estimate with ties in index order.
  const Grid grid = Grid::preset("smoke");
  const std::vector<Cell> cells = grid.expand();
  const std::vector<Cell> pending = start_campaign(grid, {}).pending;
  ASSERT_EQ(pending.size(), cells.size());
  std::set<int> seen;
  for (const Cell& cell : pending) seen.insert(cell.index);
  EXPECT_EQ(seen.size(), cells.size());  // a permutation
  for (std::size_t i = 1; i < pending.size(); ++i) {
    const double prev = static_estimate(pending[i - 1]);
    const double cur = static_estimate(pending[i]);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(pending[i - 1].index, pending[i].index);  // ties: index order
    }
  }
}

TEST(CampaignDeterminism, ResumeAgainstReshapedGridKeepsAllRecordsStably) {
  // Regression for the resume-ordering instability: records preserved from
  // a *previous grid shape* keep their stale cell indices, which collide
  // with re-anchored current indices. The canonical order must tie-break on
  // the key so the merged file does not depend on resume history, and the
  // foreign record must survive the rewrite (dedupe is by key, not index).
  const std::string path = temp_path("reshape.jsonl");
  Spec wide = derived_spec();
  wide.agents = {AgentKind::kSetGossip};
  wide.models = {CommModel::kSimpleBroadcast};
  wide.functions = {FunctionKind::kMax};
  wide.sizes = {4, 5};
  RunnerOptions options;
  options.out_path = path;
  Runner(options).run(single_spec_grid(wide));
  ASSERT_EQ(MetricsSink::read_file(path).size(), 2u);

  // Reshape: only n=5 remains, so the n=4 record (stale index 0) becomes
  // foreign while the n=5 record is re-anchored to index 0 — a collision.
  Spec narrow = wide;
  narrow.sizes = {5};
  Runner(options).run(single_spec_grid(narrow));
  const std::string first = read_bytes(path);
  const std::vector<CellRecord> merged = MetricsSink::read_file(path);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].cell, merged[1].cell);  // the index collision is real
  EXPECT_LT(merged[0].key, merged[1].key);    // resolved by the key order

  // Resuming again must be a byte-level no-op, run after run.
  Runner(options).run(single_spec_grid(narrow));
  EXPECT_EQ(read_bytes(path), first);
  Runner(options).run(single_spec_grid(narrow));
  EXPECT_EQ(read_bytes(path), first);
  std::remove(path.c_str());
}

TEST(CampaignTimeout, DeadlineTripsAsATimeoutVerdict) {
  // A hung-cell fixture: a huge round budget with an unreachable tolerance
  // would spin for minutes; the wall-clock deadline must cut it short and
  // record a "timeout" verdict (distinct from "failed").
  Cell cell;
  cell.index = 0;
  cell.suite = "hang";
  cell.agent = AgentKind::kMetropolis;
  cell.model = CommModel::kOutdegreeAware;
  cell.function = FunctionKind::kAverage;
  cell.schedule = ScheduleKind::kRandomSymmetric;
  cell.inputs = derived_inputs(48, 1);
  cell.rounds = 50'000'000;
  cell.tolerance = -1.0;  // sup-error can never go negative: never converges
  cell.timeout_ms = 50.0;
  const CellRecord record = Runner::run_cell(cell);
  EXPECT_EQ(record.verdict, "timeout");
  EXPECT_NE(record.reason.find("deadline"), std::string::npos)
      << record.reason;
  EXPECT_FALSE(record.success);
  EXPECT_GT(record.rounds, 0);           // it made progress before the cut
  EXPECT_LT(record.rounds, cell.rounds); // and stopped far short of budget

  // With no deadline the same fixture at a tiny budget completes normally.
  cell.timeout_ms = 0.0;
  cell.rounds = 3;
  EXPECT_EQ(Runner::run_cell(cell).verdict, "ok");
}

TEST(CampaignTimeout, RunnerOptionDefaultsTimeoutsAndSpecOverrides) {
  // RunnerOptions::cell_timeout_ms reaches every cell that does not carry
  // its own deadline; expanded cells carry none.
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kMetropolis};
  spec.models = {CommModel::kOutdegreeAware};
  spec.schedules = {ScheduleKind::kRandomSymmetric};
  spec.sizes = {48};
  spec.rounds = 50'000'000;
  spec.tolerance = -1.0;

  const std::vector<Cell> plain = single_spec_grid(spec).expand();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_LE(plain[0].timeout_ms, 0.0);

  std::vector<Cell> armed = plain;
  apply_cell_overrides(armed, 40.0, 0);
  EXPECT_DOUBLE_EQ(armed[0].timeout_ms, 40.0);

  RunnerOptions options;
  options.cell_timeout_ms = 40.0;
  const std::vector<CellRecord> records =
      Runner(options).run(single_spec_grid(spec));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].verdict, "timeout");

  // The deadline is execution policy, not identity: the key is unchanged.
  EXPECT_EQ(plain[0].key(), armed[0].key());
}

TEST(Campaign, BandwidthAxisExpandsInnermostAndSuffixesKeys) {
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kSetGossip};
  spec.models = {CommModel::kSimpleBroadcast};
  spec.functions = {FunctionKind::kMax};
  spec.seeds = {1, 2};
  spec.bandwidths = {0, -1, 128};
  const std::vector<Cell> cells = single_spec_grid(spec).expand();
  ASSERT_EQ(cells.size(), 6u);
  // Innermost axis: bandwidth varies fastest, inside the seed loop.
  EXPECT_EQ(cells[0].bandwidth_bits, 0);
  EXPECT_EQ(cells[1].bandwidth_bits, -1);
  EXPECT_EQ(cells[2].bandwidth_bits, 128);
  EXPECT_EQ(cells[0].seed, cells[2].seed);
  EXPECT_NE(cells[0].seed, cells[3].seed);
  // Channel-off cells keep their pre-bandwidth key bytes; armed cells get
  // the "/b<bits>" coordinate suffix.
  EXPECT_EQ(cells[0].key().find("/b"), std::string::npos);
  EXPECT_NE(cells[1].key().find("/b-1"), std::string::npos);
  EXPECT_NE(cells[2].key().find("/b128"), std::string::npos);
}

TEST(Campaign, DefaultGridsCarryNoBandwidthCoordinate) {
  for (const std::string& name : {std::string("smoke"), std::string("tables")}) {
    for (const Cell& cell : Grid::preset(name).expand()) {
      EXPECT_EQ(cell.bandwidth_bits, 0) << cell.key();
      EXPECT_EQ(cell.key().find("/b"), std::string::npos) << cell.key();
    }
  }
}

TEST(Campaign, ExpandValidatesTheBandwidthAxis) {
  Spec no_axis = derived_spec();
  no_axis.agents = {AgentKind::kSetGossip};
  no_axis.models = {CommModel::kSimpleBroadcast};
  no_axis.bandwidths.clear();
  EXPECT_THROW(single_spec_grid(no_axis).expand(), std::invalid_argument);
  Spec bad_axis = derived_spec();
  bad_axis.agents = {AgentKind::kSetGossip};
  bad_axis.models = {CommModel::kSimpleBroadcast};
  bad_axis.bandwidths = {-2};
  EXPECT_THROW(single_spec_grid(bad_axis).expand(), std::invalid_argument);
}

TEST(Campaign, StartCampaignValidatesTheBandwidthOverride) {
  // The campaign-level override obeys the axis's rule, and is checked
  // before the sink opens: a rejected run writes nothing.
  const Grid grid = Grid::preset("smoke");
  const std::string path = temp_path("bad_bandwidth.jsonl");
  std::remove(path.c_str());
  RunnerOptions options;
  options.out_path = path;
  for (const int bits : {-2, -5}) {
    options.bandwidth_bits = bits;
    EXPECT_THROW((void)start_campaign(grid, options), std::invalid_argument)
        << bits;
    EXPECT_FALSE(std::ifstream(path).good()) << bits;
  }
  options.out_path.clear();
  for (const int bits : {-1, 0, 128}) {
    options.bandwidth_bits = bits;
    EXPECT_EQ(start_campaign(grid, options).pending.size(),
              grid.expand().size())
        << bits;
  }
}

TEST(Campaign, BoundedCellRecordsBandwidthExceededVerdict) {
  // The first frequency Push-Sum message (one entry + outdegree) needs more
  // than 128 bits, so the bounded channel trips in round 1 — a *model*
  // verdict distinct from "failed": the algorithm does not fit the channel.
  Cell cell;
  cell.index = 0;
  cell.suite = "bw";
  cell.agent = AgentKind::kFrequencyPushSum;
  cell.model = CommModel::kOutdegreeAware;
  cell.function = FunctionKind::kAverage;
  cell.schedule = ScheduleKind::kRandomStronglyConnected;
  cell.inputs = derived_inputs(6, 1);
  cell.rounds = 30;
  cell.bandwidth_bits = 128;
  const CellRecord record = Runner::run_cell(cell);
  EXPECT_EQ(record.verdict, "bandwidth_exceeded");
  EXPECT_NE(record.reason.find("channel budget"), std::string::npos)
      << record.reason;
  EXPECT_FALSE(record.success);
  EXPECT_EQ(record.rounds, 0);
  EXPECT_EQ(record.bandwidth_bits, 128);
  EXPECT_EQ(record.bits, -1);

  // The same cell metered instead of bounded completes and measures.
  cell.bandwidth_bits = -1;
  const CellRecord metered = Runner::run_cell(cell);
  EXPECT_EQ(metered.verdict, "ok");
  EXPECT_EQ(metered.bandwidth_bits, -1);
  EXPECT_GT(metered.bits, 0);

  // And a budget above every message admits the run.
  cell.bandwidth_bits = 1 << 20;
  const CellRecord roomy = Runner::run_cell(cell);
  EXPECT_EQ(roomy.verdict, "ok");
  EXPECT_GT(roomy.bits, 0);
  EXPECT_EQ(roomy.bits, metered.bits);
}

TEST(Campaign, RecordJsonRoundTripsBandwidthFields) {
  const CellRecord record = bandwidth_record();
  const std::string line = MetricsSink::to_json(record, false);
  EXPECT_NE(line.find("\"bandwidth_bits\":128"), std::string::npos);
  EXPECT_NE(line.find("\"bits\":4096"), std::string::npos);
  const auto parsed = MetricsSink::parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->bandwidth_bits, 128);
  EXPECT_EQ(parsed->bits, 4096);
  EXPECT_EQ(MetricsSink::to_json(*parsed, false), line);

  // Channel off: the fields stay out of the line entirely, so meter-off
  // campaigns render byte-identically to pre-wire-layer output.
  CellRecord off;
  off.cell = 7;
  off.key = "bw/cell";
  EXPECT_EQ(MetricsSink::to_json(off, false).find("bandwidth_bits"),
            std::string::npos);
  EXPECT_EQ(MetricsSink::to_json(off, false).find("\"bits\""),
            std::string::npos);
}

TEST(Campaign, RunnerOptionBandwidthIsACoordinateOverride) {
  // Unlike cell_timeout_ms (execution policy), the bandwidth default
  // rewrites the cells' identity: keys gain the /b coordinate and the
  // records carry measured bits.
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kSetGossip};
  spec.models = {CommModel::kSimpleBroadcast};
  spec.functions = {FunctionKind::kMax};
  RunnerOptions options;
  options.bandwidth_bits = -1;
  const std::vector<CellRecord> records =
      Runner(options).run(single_spec_grid(spec));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].key.find("/b-1"), std::string::npos);
  EXPECT_EQ(records[0].bandwidth_bits, -1);
  EXPECT_GT(records[0].bits, 0);
}

TEST(CampaignDeterminism, BandwidthGridShardsToIdenticalCanonicalBytes) {
  // Metered bit totals are integer sums, so the bandwidth suite keeps the
  // byte-reproducibility contract across shard counts.
  const std::string single = temp_path("bw_single.jsonl");
  const std::string sharded = temp_path("bw_sharded.jsonl");
  const Grid grid = Grid::preset("bandwidth");
  RunnerOptions one;
  one.out_path = single;
  one.resume = false;
  const std::vector<CellRecord> records = Runner(one).run(grid);
  ASSERT_FALSE(records.empty());
  std::remove(sharded.c_str());
  for (int shard = 0; shard < 3; ++shard) {
    RunnerOptions options;
    options.shards = 3;
    options.shard_index = shard;
    options.out_path = sharded;
    Runner(options).run(grid);
  }
  EXPECT_EQ(read_bytes(single), read_bytes(sharded));
  std::remove(single.c_str());
  std::remove(sharded.c_str());
}

TEST(Campaign, PerturbationAxesExpandInnermostAndSuffixKeys) {
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kSetGossip};
  spec.models = {CommModel::kSimpleBroadcast};
  spec.functions = {FunctionKind::kMax};
  spec.seeds = {1, 2};
  spec.starts = {StartsKind::kSynchronous, StartsKind::kStaggered};
  spec.faults = {FaultsKind::kNone, FaultsKind::kCrash};
  const std::vector<Cell> cells = single_spec_grid(spec).expand();
  ASSERT_EQ(cells.size(), 8u);
  // faults is the innermost axis, starts the next one out, both inside seed.
  EXPECT_EQ(cells[0].faults, FaultsKind::kNone);
  EXPECT_EQ(cells[1].faults, FaultsKind::kCrash);
  EXPECT_EQ(cells[0].starts, StartsKind::kSynchronous);
  EXPECT_EQ(cells[2].starts, StartsKind::kStaggered);
  EXPECT_EQ(cells[0].seed, cells[3].seed);
  EXPECT_NE(cells[0].seed, cells[4].seed);
  // Unperturbed cells keep their pre-perturbation key bytes; perturbed
  // cells append the /w (starts) and /f (faults) coordinates.
  EXPECT_EQ(cells[0].key().find("/w"), std::string::npos);
  EXPECT_EQ(cells[0].key().find("/f"), std::string::npos);
  EXPECT_NE(cells[1].key().find("/fcrash"), std::string::npos);
  EXPECT_NE(cells[2].key().find("/wstaggered"), std::string::npos);
  EXPECT_NE(cells[3].key().find("/wstaggered"), std::string::npos);
  EXPECT_NE(cells[3].key().find("/fcrash"), std::string::npos);
}

TEST(Campaign, DefaultGridsCarryNoPerturbationCoordinate) {
  for (const std::string& name : {std::string("smoke"), std::string("tables"),
                                  std::string("adversarial")}) {
    for (const Cell& cell : Grid::preset(name).expand()) {
      EXPECT_EQ(cell.starts, StartsKind::kSynchronous) << cell.key();
      EXPECT_EQ(cell.faults, FaultsKind::kNone) << cell.key();
      // No perturbation coordinate suffix on any default cell ("/f" alone
      // is too loose a probe: "…/freq-pushsum/…" contains it).
      for (const char* suffix : {"/wstaggered", "/wstraggler", "/fcrash",
                                 "/fdrop", "/fcrash-drop"}) {
        EXPECT_EQ(cell.key().find(suffix), std::string::npos)
            << cell.key() << " carries " << suffix;
      }
    }
  }
}

TEST(Campaign, ExpandValidatesThePerturbationAxes) {
  Spec no_starts = derived_spec();
  no_starts.agents = {AgentKind::kSetGossip};
  no_starts.models = {CommModel::kSimpleBroadcast};
  no_starts.starts.clear();
  EXPECT_THROW(single_spec_grid(no_starts).expand(), std::invalid_argument);
  Spec no_faults = derived_spec();
  no_faults.agents = {AgentKind::kSetGossip};
  no_faults.models = {CommModel::kSimpleBroadcast};
  no_faults.faults.clear();
  EXPECT_THROW(single_spec_grid(no_faults).expand(), std::invalid_argument);
}

TEST(Campaign, PerturbationSlugsRoundTrip) {
  // The defaults stay out of the line, so they parse back empty.
  for (StartsKind kind : {StartsKind::kSynchronous, StartsKind::kStaggered,
                          StartsKind::kStraggler}) {
    Cell cell;
    cell.starts = kind;
    EXPECT_EQ(slug_round_trip(cell).starts,
              kind == StartsKind::kSynchronous ? "" : slug(kind));
  }
  for (FaultsKind kind : {FaultsKind::kNone, FaultsKind::kCrash,
                          FaultsKind::kDrop, FaultsKind::kCrashDrop}) {
    Cell cell;
    cell.faults = kind;
    EXPECT_EQ(slug_round_trip(cell).faults,
              kind == FaultsKind::kNone ? "" : slug(kind));
  }
}

TEST(Campaign, PerturbedAutoCellsAreSkipped) {
  // The computability harness dispatches clean-model algorithms; perturbed
  // cells must pin an explicit agent so the prediction table can gate them.
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kAuto};
  spec.models = {CommModel::kOutdegreeAware};
  spec.faults = {FaultsKind::kDrop};
  const std::vector<Cell> cells = single_spec_grid(spec).expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].admissible);
  EXPECT_EQ(Runner::run_cell(cells[0]).verdict, "skipped");
}

TEST(Campaign, PredictFailureFollowsTheToleranceClaims) {
  Cell cell;
  cell.agent = AgentKind::kSetGossip;
  cell.schedule = ScheduleKind::kRandomSymmetric;

  // In-claim perturbations predict nothing.
  cell.starts = StartsKind::kStaggered;
  cell.faults = FaultsKind::kDrop;
  EXPECT_EQ(predict_failure(cell), "");
  cell.schedule = ScheduleKind::kPreferentialChurn;
  EXPECT_EQ(predict_failure(cell), "");

  // Gossip does not claim crash-stop.
  cell.schedule = ScheduleKind::kRandomSymmetric;
  cell.starts = StartsKind::kSynchronous;
  cell.faults = FaultsKind::kCrash;
  EXPECT_NE(predict_failure(cell).find("crash-stop"), std::string::npos);

  // Push-Sum claims churn only: executor-level async starts and drops are
  // both out of claim, and the reasons accumulate.
  cell.agent = AgentKind::kFrequencyPushSum;
  cell.schedule = ScheduleKind::kGeometricChurn;
  cell.starts = StartsKind::kStaggered;
  cell.faults = FaultsKind::kDrop;
  const std::string reasons = predict_failure(cell);
  EXPECT_NE(reasons.find("asynchronous starts"), std::string::npos);
  EXPECT_NE(reasons.find("message drops"), std::string::npos);
  EXPECT_EQ(reasons.find("churn"), std::string::npos);
  EXPECT_NE(reasons.find("; "), std::string::npos);

  // Metropolis claims async starts + churn but not one-sided drops.
  cell.agent = AgentKind::kMetropolis;
  cell.starts = StartsKind::kStraggler;
  cell.faults = FaultsKind::kNone;
  EXPECT_EQ(predict_failure(cell), "");
  cell.faults = FaultsKind::kDrop;
  EXPECT_NE(predict_failure(cell).find("message drops"), std::string::npos);
}

TEST(Campaign, RecordJsonRoundTripsPerturbationFields) {
  const CellRecord record = perturbed_record();
  const std::string line = MetricsSink::to_json(record, false);
  // Default starts stay out of the line; the armed faults coordinate and
  // the prediction flag appear.
  EXPECT_EQ(line.find("\"starts\""), std::string::npos);
  EXPECT_NE(line.find("\"faults\":\"crash\""), std::string::npos);
  EXPECT_NE(line.find("\"predicted\":true"), std::string::npos);
  const auto parsed = MetricsSink::parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->faults, "crash");
  EXPECT_TRUE(parsed->predicted);
  EXPECT_EQ(parsed->verdict, "expected_failure");
  EXPECT_EQ(MetricsSink::to_json(*parsed, false), line);

  // deadline_ms round-trips on timeout records and stays out otherwise.
  CellRecord timed = record;
  timed.verdict = "timeout";
  timed.deadline_ms = 50.0;
  const std::string timed_line = MetricsSink::to_json(timed, false);
  EXPECT_NE(timed_line.find("\"deadline_ms\":50"), std::string::npos);
  const auto timed_parsed = MetricsSink::parse_line(timed_line);
  ASSERT_TRUE(timed_parsed.has_value());
  EXPECT_DOUBLE_EQ(timed_parsed->deadline_ms, 50.0);
  EXPECT_EQ(MetricsSink::to_json(*timed_parsed, false), timed_line);
  EXPECT_EQ(line.find("deadline_ms"), std::string::npos);
}

TEST(Campaign, CrashUnderDeadlineIsExpectedFailureNeverOk) {
  // Deadline x perturbation interplay (both orders of breakdown):
  // a predicted-broken cell may finish its rounds unsuccessfully OR burn
  // its wall-clock budget — either way the verdict is "expected_failure",
  // never a plain "ok" or a crash of the harness.
  Cell cell;
  cell.index = 0;
  cell.suite = "interplay";
  cell.agent = AgentKind::kSetGossip;
  cell.model = CommModel::kSimpleBroadcast;
  cell.function = FunctionKind::kMax;
  cell.schedule = ScheduleKind::kRandomSymmetric;
  cell.inputs = derived_inputs(8, 1);
  cell.rounds = 50;
  cell.faults = FaultsKind::kCrash;
  cell.timeout_ms = 60'000.0;  // generous: the round budget ends it
  const CellRecord finished = Runner::run_cell(cell);
  EXPECT_EQ(finished.verdict, "expected_failure");
  EXPECT_TRUE(finished.predicted);
  EXPECT_FALSE(finished.success);
  EXPECT_NE(finished.reason.find("crash-stop"), std::string::npos);

  // A predicted cell that trips the deadline first: still expected_failure,
  // with both the prediction and the deadline in the reason, and the budget
  // recorded for resume.
  Cell hung;
  hung.index = 0;
  hung.suite = "interplay";
  hung.agent = AgentKind::kMetropolis;
  hung.model = CommModel::kOutdegreeAware;
  hung.function = FunctionKind::kAverage;
  hung.schedule = ScheduleKind::kRandomSymmetric;
  hung.inputs = derived_inputs(48, 1);
  hung.rounds = 50'000'000;
  hung.tolerance = -1.0;
  hung.faults = FaultsKind::kDrop;
  hung.timeout_ms = 50.0;
  const CellRecord timed = Runner::run_cell(hung);
  EXPECT_EQ(timed.verdict, "expected_failure");
  EXPECT_TRUE(timed.predicted);
  EXPECT_NE(timed.reason.find("message drops"), std::string::npos);
  EXPECT_NE(timed.reason.find("deadline"), std::string::npos);
  EXPECT_DOUBLE_EQ(timed.deadline_ms, 50.0);
}

TEST(CampaignTimeout, ResumeReattemptsTimeoutsUnderALargerBudget) {
  // Regression: resume used to reuse "timeout" records unconditionally, so
  // a cell that timed out once could never produce a better verdict — a
  // rerun with a 10x budget silently kept the stale timeout. The record now
  // carries the budget that produced it (deadline_ms) and is only reused
  // when the current budget is no larger.
  const std::string path = temp_path("timeout_resume.jsonl");
  std::remove(path.c_str());
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kMetropolis};
  spec.models = {CommModel::kOutdegreeAware};
  spec.schedules = {ScheduleKind::kRandomSymmetric};
  spec.sizes = {48};
  spec.rounds = 50'000'000;
  spec.tolerance = -1.0;  // never converges: every budget times out
  const Grid grid = single_spec_grid(spec);

  RunnerOptions options;
  options.out_path = path;
  options.cell_timeout_ms = 50.0;
  const std::vector<CellRecord> first = Runner(options).run(grid);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].verdict, "timeout");
  EXPECT_DOUBLE_EQ(first[0].deadline_ms, 50.0);

  // Tamper-sentinel: rewrite the record so reuse is observable.
  std::vector<CellRecord> tampered = MetricsSink::read_file(path);
  ASSERT_EQ(tampered.size(), 1u);
  tampered[0].mechanism = "sentinel: reused, not re-run";
  MetricsSink::write_canonical(path, std::move(tampered), false);

  // Same budget: the timeout is conclusive, the record is reused.
  const std::vector<CellRecord> same = Runner(options).run(grid);
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0].mechanism, "sentinel: reused, not re-run");

  // Larger budget: the cell must be re-attempted (sentinel gone), and the
  // fresh timeout records the new budget.
  options.cell_timeout_ms = 400.0;
  const std::vector<CellRecord> larger = Runner(options).run(grid);
  ASSERT_EQ(larger.size(), 1u);
  EXPECT_NE(larger[0].mechanism, "sentinel: reused, not re-run");
  EXPECT_EQ(larger[0].verdict, "timeout");
  EXPECT_DOUBLE_EQ(larger[0].deadline_ms, 400.0);
  std::remove(path.c_str());
}

TEST(CampaignTimeout, ResumeKeepsAFinishedLineAfterAStaleTimeout) {
  // Regression: a larger budget re-attempts a timed-out cell, and the run is
  // killed before its canonical rewrite. The file then holds the stale
  // "timeout" line and, after it, the finished line of the same cell.
  // Resume used to let the dropped timeout claim the key and skip the
  // finished line as a duplicate, so the cell ran again.
  const std::string path = temp_path("timeout_then_finished.jsonl");
  Spec spec = derived_spec();
  spec.agents = {AgentKind::kSetGossip};
  spec.models = {CommModel::kSimpleBroadcast};
  spec.functions = {FunctionKind::kMax};
  const Grid grid = single_spec_grid(spec);
  const std::vector<Cell> cells = grid.expand();
  ASSERT_EQ(cells.size(), 1u);
  CellRecord timed_out = Runner::run_cell(cells[0]);
  timed_out.verdict = "timeout";
  timed_out.reason = "cell deadline of 1 ms exceeded";
  timed_out.deadline_ms = 1.0;
  CellRecord finished = Runner::run_cell(cells[0]);
  ASSERT_EQ(finished.verdict, "ok");
  finished.mechanism = "sentinel: finished after the timeout";
  {
    MetricsSink sink(path, false, /*append=*/false);
    sink.append(timed_out);
    sink.append(finished);
  }

  RunnerOptions options;  // no deadline: the timeout line is not reusable
  options.out_path = path;
  const std::vector<CellRecord> resumed = Runner(options).run(grid);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].mechanism, finished.mechanism);
  EXPECT_EQ(read_bytes(path), MetricsSink::to_json(finished, false) + "\n");
  std::remove(path.c_str());
}

TEST(Campaign, FaultsPresetPredictionsAreExactAndNothingPlainFails) {
  // The acceptance sweep: on the faults preset every cell either succeeds
  // ("ok" with success) or breaks exactly as the FaultTolerance table
  // predicts ("expected_failure") — no plain "failed", no timeout, no
  // predicted cell sneaking to success.
  const std::vector<CellRecord> records =
      Runner(RunnerOptions{}).run(Grid::preset("faults"));
  ASSERT_FALSE(records.empty());
  int expected_failures = 0;
  for (const CellRecord& record : records) {
    EXPECT_NE(record.verdict, "failed") << record.key << ": " << record.reason;
    EXPECT_NE(record.verdict, "timeout") << record.key;
    if (record.verdict == "ok") {
      EXPECT_TRUE(record.success) << record.key;
      EXPECT_FALSE(record.predicted) << "predicted cell succeeded: "
                                     << record.key;
    } else if (record.verdict == "expected_failure") {
      ++expected_failures;
      EXPECT_TRUE(record.predicted) << record.key;
      EXPECT_FALSE(record.success) << record.key;
      EXPECT_NE(record.reason.find("tolerance claim"), std::string::npos)
          << record.key << ": " << record.reason;
    } else {
      ADD_FAILURE() << "unexpected verdict '" << record.verdict << "' for "
                    << record.key;
    }
  }
  EXPECT_GT(expected_failures, 0);
  expect_pinned_bytes("faults", records, 0x5acbdcfc838edf5cull);
}

TEST(Campaign, SmokeAdversarialAndBandwidthGridsKeepTheirBytes) {
  const std::pair<std::string, std::uint64_t> pins[] = {
      {"smoke", 0x58b02bff683c7e30ull},
      {"open", 0xbb599f1562dde0c9ull},
      {"adversarial", 0xa08c16ed02be79b8ull},
      {"bandwidth", 0x88c501e33f4ea58bull}};
  for (const auto& [grid, pinned] : pins) {
    expect_pinned_bytes(grid, Runner(RunnerOptions{}).run(Grid::preset(grid)),
                        pinned);
  }
}

TEST(CampaignDeterminism, FaultedGridThreadsAndShardsAreByteIdentical) {
  // The perturbation machinery (drop lottery, churn membership, start
  // gating) must preserve the byte-reproducibility contract: 4 worker
  // threads and 4 shards-in-turn equal the serial single-shard bytes.
  const std::string single = temp_path("faults_single.jsonl");
  const std::string threaded = temp_path("faults_threaded.jsonl");
  const std::string sharded = temp_path("faults_sharded.jsonl");
  Spec spec = derived_spec();
  spec.suite = "faulted";
  spec.agents = {AgentKind::kSetGossip, AgentKind::kMetropolis};
  spec.models = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware};
  spec.functions = {FunctionKind::kMax, FunctionKind::kAverage};
  spec.schedules = {ScheduleKind::kPreferentialChurn,
                    ScheduleKind::kGeometricChurn};
  spec.sizes = {8};
  spec.seeds = {1, 2};
  spec.rounds = 300;
  spec.tolerance = 1e-3;
  spec.starts = {StartsKind::kSynchronous, StartsKind::kStraggler};
  spec.faults = {FaultsKind::kNone, FaultsKind::kCrash, FaultsKind::kDrop};
  Grid grid;
  grid.add(std::move(spec));

  RunnerOptions one;
  one.out_path = single;
  one.resume = false;
  const std::vector<CellRecord> records = Runner(one).run(grid);
  ASSERT_FALSE(records.empty());

  RunnerOptions four;
  four.out_path = threaded;
  four.resume = false;
  four.threads = 4;
  Runner(four).run(grid);
  EXPECT_EQ(read_bytes(single), read_bytes(threaded));

  std::remove(sharded.c_str());
  for (int shard = 0; shard < 4; ++shard) {
    RunnerOptions options;
    options.shards = 4;
    options.shard_index = shard;
    options.out_path = sharded;
    Runner(options).run(grid);
  }
  EXPECT_EQ(read_bytes(single), read_bytes(sharded));
  std::remove(single.c_str());
  std::remove(threaded.c_str());
  std::remove(sharded.c_str());
}

TEST(CampaignParallel, ConcurrentAppendsKeepWholeLines) {
  const std::string path = temp_path("parallel_sink.jsonl");
  const Grid grid = Grid::preset("smoke");
  RunnerOptions options;
  options.threads = 4;
  options.out_path = path;
  options.resume = false;
  const std::vector<CellRecord> records = Runner(options).run(grid);
  const std::vector<CellRecord> reread = MetricsSink::read_file(path);
  ASSERT_EQ(reread.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reread[i].key, records[i].key);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anonet::campaign
