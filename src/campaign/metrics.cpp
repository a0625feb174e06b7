#include "campaign/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unordered_set>

#include "support/jsonl.hpp"

namespace anonet::campaign {

MetricsSink::MetricsSink(std::string path, bool include_timings, bool append)
    : path_(std::move(path)), include_timings_(include_timings) {
  out_.open(path_, append ? std::ios::app : std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("MetricsSink: cannot open '" + path_ +
                             "' for writing");
  }
}

MetricsSink::~MetricsSink() { close(); }

void MetricsSink::append(const CellRecord& record) {
  const std::string line = to_json(record, include_timings_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) {
    throw std::runtime_error("MetricsSink: append after close");
  }
  out_ << line << '\n';
  // Durability contract: an appended record is an *acknowledged* cell —
  // remote coordinators treat its append as the moment the cell is done, so
  // it must reach the file before append returns or a crash right after the
  // acknowledgement silently loses the cell.
  out_.flush();
  if (!out_) {
    throw std::runtime_error("MetricsSink: write to '" + path_ + "' failed");
  }
}

void MetricsSink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

namespace {

// The record line, spelled once: every field in docs/campaign.md's order.
// An optional field carries the condition under which to_json writes it.
// `fields` is a LineWriter (to_json) or a LineReader (parse_line), so a
// field added here is both written and read back.
template <typename Record, typename Fields>
void record_fields(Record& r, bool include_timings, Fields& fields) {
  fields.required("cell", r.cell);
  fields.required("key", r.key);
  fields.required("suite", r.suite);
  fields.required("agent", r.agent);
  fields.required("model", r.model);
  fields.required("knowledge", r.knowledge);
  fields.required("function", r.function);
  fields.required("schedule", r.schedule);
  fields.required("variant", r.variant);
  fields.required("n", r.n);
  fields.required("seed", r.seed);
  // Perturbation coordinates only appear off their defaults, keeping
  // unperturbed records byte-identical to the pre-perturbation format.
  fields.optional("starts", r.starts, !r.starts.empty() && r.starts != "sync");
  fields.optional("faults", r.faults, !r.faults.empty() && r.faults != "none");
  fields.required("verdict", r.verdict);
  fields.required("reason", r.reason);
  fields.optional("deadline_ms", r.deadline_ms, r.deadline_ms > 0.0);
  fields.optional("predicted", r.predicted, r.predicted);
  fields.required("success", r.success);
  fields.required("exact", r.exact);
  fields.required("stabilization_round", r.stabilization_round);
  fields.required("error", r.error);
  fields.required("rounds", r.rounds);
  fields.required("messages", r.messages);
  // Channel-off records omit the bandwidth fields entirely, keeping their
  // bytes identical to the pre-bandwidth format.
  fields.optional("bandwidth_bits", r.bandwidth_bits, r.bandwidth_bits != 0);
  fields.optional("bits", r.bits, r.bandwidth_bits != 0);
  fields.required("mechanism", r.mechanism);
  fields.optional("wall_ms", r.wall_ms, include_timings && r.wall_ms >= 0.0);
}

// to_json's walker. Every value goes through JsonObject, so
// support/jsonl.hpp stays the one escaping and number path. The seed is
// written as its int64 bits.
struct LineWriter {
  JsonObject object;

  template <typename T>
  void required(const char* name, const T& value) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      object.field(name, static_cast<std::int64_t>(value));
    } else {
      object.field(name, value);
    }
  }
  template <typename T>
  void optional(const char* name, const T& value, bool written) {
    if (written) required(name, value);
  }
};

// parse_line's walker: a cursor that must meet `{`, then the fields as
// `"name":value` joined by `,` in record_fields' order, then `}`, with no
// whitespace. It reads an optional field only when the next key names it,
// and stops at the first byte it does not expect.
class LineReader {
 public:
  explicit LineReader(std::string_view line)
      : rest_(line), ok_(take(rest_, "{")) {}

  template <typename T>
  void required(const char* name, T& value) {
    ok_ = ok_ && take_key(name) && read(value);
  }
  template <typename T>
  void optional(const char* name, T& value, bool /*written*/) {
    if (ok_ && take_key(name)) ok_ = read(value);
  }

  // Every field was read and only the closing brace is left.
  [[nodiscard]] bool finished() const { return ok_ && rest_ == "}"; }

 private:
  static bool take(std::string_view& text, std::string_view prefix) {
    if (!text.starts_with(prefix)) return false;
    text.remove_prefix(prefix.size());
    return true;
  }

  // Consumes `,"name":` (no comma before the first field) only when it is
  // next in full.
  bool take_key(std::string_view name) {
    std::string_view rest = rest_;
    if ((first_ || take(rest, ",")) && take(rest, "\"") && take(rest, name) &&
        take(rest, "\":")) {
      rest_ = rest;
      first_ = false;
      return true;
    }
    return false;
  }

  template <typename T>
  bool read_number(T& out) {
    const char* const end = rest_.data() + rest_.size();
    const auto [stop, error] = std::from_chars(rest_.data(), end, out);
    if (error != std::errc()) return false;
    rest_.remove_prefix(static_cast<std::size_t>(stop - rest_.data()));
    return true;
  }

  bool read(int& out) { return read_number(out); }
  bool read(std::int64_t& out) { return read_number(out); }
  bool read(std::uint64_t& out) {
    std::int64_t bits = 0;
    if (!read_number(bits)) return false;
    out = static_cast<std::uint64_t>(bits);
    return true;
  }
  bool read(bool& out) {
    out = take(rest_, "true");
    return out || take(rest_, "false");
  }
  // A number, or json_number's spelling of a non-finite value.
  bool read(double& out) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (take(rest_, "\"nan\"")) {
      out = std::numeric_limits<double>::quiet_NaN();
    } else if (take(rest_, "\"inf\"")) {
      out = kInf;
    } else if (take(rest_, "\"-inf\"")) {
      out = -kInf;
    } else {
      return read_number(out);
    }
    return true;
  }
  // Unescapes what json_escape writes: \" \\ \n \r \t, and \u00xx for the
  // other control bytes.
  bool read(std::string& out) {
    if (!take(rest_, "\"")) return false;
    out.clear();
    while (!rest_.empty()) {
      const char c = rest_.front();
      rest_.remove_prefix(1);
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (rest_.empty()) return false;
      const char escaped = rest_.front();
      rest_.remove_prefix(1);
      switch (escaped) {
        case '"':
        case '\\': out += escaped; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned value = 0;
          if (rest_.size() < 4) return false;
          const char* const end = rest_.data() + 4;
          const auto [stop, error] =
              std::from_chars(rest_.data(), end, value, 16);
          if (error != std::errc() || stop != end || value >= 0x20) {
            return false;
          }
          rest_.remove_prefix(4);
          out += static_cast<char>(value);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated string (truncated line)
  }

  std::string_view rest_;
  bool ok_;
  bool first_ = true;
};

}  // namespace

std::string MetricsSink::to_json(const CellRecord& record,
                                 bool include_timings) {
  LineWriter writer;
  record_fields(record, include_timings, writer);
  return writer.object.str();
}

std::optional<CellRecord> MetricsSink::parse_line(const std::string& line) {
  CellRecord record;
  LineReader reader(line);
  record_fields(record, true, reader);
  // Fail closed: a line is trusted only when its record renders back to it
  // byte for byte, so a value spelled other than to_json spells it (a
  // leading zero, a perturbation coordinate at its default, a non-canonical
  // escape) is never imported.
  if (!reader.finished() || to_json(record, true) != line) return std::nullopt;
  return record;
}

std::vector<CellRecord> MetricsSink::read_file(const std::string& path) {
  std::vector<CellRecord> records;
  std::ifstream in(path);
  if (!in) return records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto record = parse_line(line)) records.push_back(std::move(*record));
  }
  return records;
}

void MetricsSink::write_canonical(const std::string& path,
                                  std::vector<CellRecord> records,
                                  bool include_timings) {
  std::stable_sort(records.begin(), records.end(), canonical_order);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("MetricsSink: cannot rewrite '" + path + "'");
  }
  std::unordered_set<std::string> written;
  for (const CellRecord& record : records) {
    if (!written.insert(record.key).second) continue;  // dup: keep the first
    out << to_json(record, include_timings) << '\n';
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("MetricsSink: rewrite of '" + path + "' failed");
  }
}

namespace {

// Per-(knowledge, model, function) fold over variants: a class is credited
// only when every panel / input set computes it.
struct FunctionFold {
  int runs = 0;
  int skipped = 0;
  bool all_exact = true;
  bool all_approx = true;

  void add(const CellRecord& record) {
    if (record.verdict == "skipped") {
      ++skipped;
      return;
    }
    ++runs;
    const bool ok = record.verdict == "ok";
    all_exact = all_exact && ok && record.exact;
    all_approx = all_approx && ok && record.success;
  }

  [[nodiscard]] bool exact() const { return runs > 0 && all_exact; }
  [[nodiscard]] bool approx() const { return runs > 0 && all_approx; }
  [[nodiscard]] bool all_skipped() const { return runs == 0 && skipped > 0; }
};

struct PaperGrid {
  std::vector<CommModel> cols;
  std::vector<std::vector<std::string>> labels;
  std::vector<std::vector<bool>> open;
};

PaperGrid paper_grid(const std::string& suite) {
  PaperGrid grid;
  if (suite == "table1") {
    grid.cols = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
                 CommModel::kSymmetricBroadcast, CommModel::kOutputPortAware};
    grid.labels = {
        {"set-based", "frequency-based", "frequency-based", "frequency-based"},
        {"set-based", "frequency-based", "frequency-based", "frequency-based"},
        {"set-based", "multiset-based", "multiset-based", "multiset-based"},
        {"set-based", "multiset-based", "multiset-based", "multiset-based"},
    };
    grid.open.assign(4, std::vector<bool>(4, false));
  } else if (suite == "table2") {
    grid.cols = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
                 CommModel::kSymmetricBroadcast};
    // The symmetric no-help and leader cells are the paper's [26]/[25]
    // citations (exact computation); the outdegree no-help and leader cells
    // are its two open "?" entries.
    grid.labels = {
        {"set-based", "?", "frequency-based"},
        {"set-based", "frequency-based", "frequency-based"},
        {"set-based", "multiset-based", "multiset-based"},
        {"set-based", "?", "multiset-based"},
    };
    grid.open = {
        {false, true, false},
        {false, false, false},
        {false, false, false},
        {false, true, false},
    };
  } else {
    throw std::invalid_argument("compare_table: unknown suite '" + suite +
                                "' (expected table1 or table2)");
  }
  return grid;
}

}  // namespace

TableComparison compare_table(const std::vector<CellRecord>& records,
                              const std::string& suite) {
  const PaperGrid grid = paper_grid(suite);
  const bool table1 = suite == "table1";

  TableComparison out;
  out.suite = suite;
  out.rows = {Knowledge::kNone, Knowledge::kUpperBound, Knowledge::kExactSize,
              Knowledge::kLeaders};
  out.cols = grid.cols;
  out.paper = grid.labels;
  out.open = grid.open;
  out.measured.assign(out.rows.size(),
                      std::vector<std::string>(out.cols.size(), "(no data)"));
  out.all_match = true;

  for (std::size_t r = 0; r < out.rows.size(); ++r) {
    for (std::size_t c = 0; c < out.cols.size(); ++c) {
      const std::string knowledge{slug(out.rows[r])};
      const std::string model{slug(out.cols[c])};
      FunctionFold set_fold;
      FunctionFold freq_fold;
      FunctionFold multi_fold;
      for (const CellRecord& record : records) {
        if (record.suite != suite || record.knowledge != knowledge ||
            record.model != model) {
          continue;
        }
        if (record.function == "max") {
          set_fold.add(record);
        } else if (record.function == "average") {
          freq_fold.add(record);
        } else if (record.function == "sum") {
          multi_fold.add(record);
        }
      }

      std::string label;
      if (set_fold.all_skipped() && freq_fold.all_skipped() &&
          multi_fold.all_skipped()) {
        label = "skipped";
      } else if (set_fold.runs == 0 && freq_fold.runs == 0 &&
                 multi_fold.runs == 0) {
        label = "(no data)";
      } else if (table1) {
        if (multi_fold.exact() && freq_fold.exact() && set_fold.exact()) {
          label = "multiset-based";
        } else if (freq_fold.exact() && set_fold.exact()) {
          label = "frequency-based";
        } else if (set_fold.exact()) {
          label = "set-based";
        } else {
          label = "(nothing)";
        }
      } else {
        if (multi_fold.exact()) {
          label = "multiset-based";
        } else if (freq_fold.exact()) {
          label = "frequency-based";
        } else if (freq_fold.approx()) {
          label = "frequency-based*";
        } else if (set_fold.exact()) {
          label = "set-based";
        } else {
          label = "(nothing)";
        }
      }
      out.measured[r][c] = label;

      const bool cell_ok = out.open[r][c] ? label == "skipped"
                                          : label == out.paper[r][c];
      out.all_match = out.all_match && cell_ok;
    }
  }
  return out;
}

RunVerdict judge_run(const std::vector<CellRecord>& records, bool complete) {
  RunVerdict verdict;
  for (const CellRecord& record : records) {
    if (record.verdict == "failed") ++verdict.failed;
    // The FaultTolerance table said this cell must break, yet it succeeded.
    if (record.predicted && record.verdict == "ok" && record.success) {
      verdict.predicted_successes.push_back(record.key);
    }
  }
  for (const std::string suite : {"table1", "table2"}) {
    const auto in_suite = [&](const CellRecord& r) { return r.suite == suite; };
    if (std::any_of(records.begin(), records.end(), in_suite)) {
      verdict.tables.push_back(compare_table(records, suite));
      verdict.tables_match =
          verdict.tables_match && verdict.tables.back().all_match;
    }
  }
  verdict.tables_gate = complete && !verdict.tables.empty();
  verdict.passed = verdict.failed == 0 &&
                   verdict.predicted_successes.empty() &&
                   (!verdict.tables_gate || verdict.tables_match);
  return verdict;
}

std::string render_table(const TableComparison& table) {
  constexpr int kNameWidth = 26;
  constexpr int kCellWidth = 22;
  const auto pad = [](std::string text, int width) {
    if (static_cast<int>(text.size()) < width) {
      text.append(static_cast<std::size_t>(width) - text.size(), ' ');
    }
    return text;
  };

  std::string out = table.suite == "table1"
                        ? "Table 1 (static, strongly connected) — measured "
                          "from campaign records\n"
                        : "Table 2 (dynamic, finite dynamic diameter) — "
                          "measured from campaign records\n";
  out += pad("", kNameWidth);
  for (CommModel model : table.cols) {
    out += "| " + pad(std::string(to_string(model)), kCellWidth);
  }
  out += '\n';
  out.append(static_cast<std::size_t>(
                 kNameWidth + static_cast<int>(table.cols.size()) *
                                  (kCellWidth + 2)),
             '-');
  out += '\n';
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    out += pad(std::string(to_string(table.rows[r])), kNameWidth);
    for (std::size_t c = 0; c < table.cols.size(); ++c) {
      const std::string& measured = table.measured[r][c];
      const bool match = table.open[r][c] ? measured == "skipped"
                                          : measured == table.paper[r][c];
      std::string cell = measured;
      cell += table.open[r][c] ? (match ? " (open)" : " (!open)")
                               : (match ? " (=paper)" : " (DIFFERS)");
      out += "| " + pad(std::move(cell), kCellWidth);
    }
    out += '\n';
  }
  return out;
}

}  // namespace anonet::campaign
