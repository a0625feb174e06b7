#include "campaign/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
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

std::string MetricsSink::to_json(const CellRecord& record,
                                 bool include_timings) {
  JsonObject o;
  o.field("cell", record.cell)
      .field("key", record.key)
      .field("suite", record.suite)
      .field("agent", record.agent)
      .field("model", record.model)
      .field("knowledge", record.knowledge)
      .field("function", record.function)
      .field("schedule", record.schedule)
      .field("variant", record.variant)
      .field("n", record.n)
      .field("seed", static_cast<std::int64_t>(record.seed));
  // Perturbation coordinates only appear off their defaults, keeping
  // unperturbed records byte-identical to the pre-perturbation format.
  if (!record.starts.empty() && record.starts != "sync") {
    o.field("starts", record.starts);
  }
  if (!record.faults.empty() && record.faults != "none") {
    o.field("faults", record.faults);
  }
  o.field("verdict", record.verdict)
      .field("reason", record.reason);
  if (record.deadline_ms > 0.0) {
    o.field("deadline_ms", record.deadline_ms);
  }
  if (record.predicted) {
    o.field("predicted", record.predicted);
  }
  o.field("success", record.success)
      .field("exact", record.exact)
      .field("stabilization_round", record.stabilization_round)
      .field("error", record.error)
      .field("rounds", record.rounds)
      .field("messages", record.messages);
  // Channel-off records omit the bandwidth fields entirely, keeping their
  // bytes identical to the pre-bandwidth format.
  if (record.bandwidth_bits != 0) {
    o.field("bandwidth_bits", record.bandwidth_bits).field("bits", record.bits);
  }
  o.field("mechanism", record.mechanism);
  if (include_timings && record.wall_ms >= 0.0) {
    o.field("wall_ms", record.wall_ms);
  }
  return o.str();
}

namespace {

// Minimal parser for the flat one-line objects to_json produces: string
// values are unescaped, everything else is kept as a raw token. Returns
// false on any malformation (including truncation mid-line).
class FlatLineParser {
 public:
  explicit FlatLineParser(const std::string& line) : s_(line) {}

  bool parse(std::vector<std::pair<std::string, std::string>>& strings,
             std::vector<std::pair<std::string, std::string>>& tokens) {
    skip_ws();
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return finished();
    while (true) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (peek() == '"') {
        std::string value;
        if (!parse_string(value)) return false;
        strings.emplace_back(std::move(key), std::move(value));
      } else {
        std::string value;
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}') {
          value += s_[i_++];
        }
        if (value.empty()) return false;
        tokens.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return finished();
      return false;
    }
  }

 private:
  [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool finished() {
    skip_ws();
    return i_ == s_.size();
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char esc = s_[i_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The writer only \u-escapes control bytes; anything wider is
          // foreign input we reject rather than mis-decode.
          if (value > 0xff) return false;
          out += static_cast<char>(value);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated string (truncated line)
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

const std::string* find(
    const std::vector<std::pair<std::string, std::string>>& fields,
    const char* key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool to_int64(const std::string& token, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end == token.c_str() || *end != '\0') return false;
  out = value;
  return true;
}

bool to_double(const std::string& token, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') return false;
  out = value;
  return true;
}

}  // namespace

std::optional<CellRecord> MetricsSink::parse_line(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, std::string>> tokens;
  FlatLineParser parser(line);
  if (!parser.parse(strings, tokens)) return std::nullopt;

  // Field-wise decoding keeps a field's default when it is missing or its
  // token does not parse; the re-render check below rejects such lines.
  CellRecord record;
  const auto str = [&strings](const char* key, std::string& out) {
    if (const std::string* v = find(strings, key)) out = *v;
  };
  str("key", record.key);
  str("suite", record.suite);
  str("agent", record.agent);
  str("model", record.model);
  str("knowledge", record.knowledge);
  str("function", record.function);
  str("schedule", record.schedule);
  str("starts", record.starts);
  str("faults", record.faults);
  str("verdict", record.verdict);
  str("reason", record.reason);
  str("mechanism", record.mechanism);

  const auto integer = [&tokens](const char* key, auto& out) {
    const std::string* t = find(tokens, key);
    std::int64_t v = 0;
    if (t != nullptr && to_int64(*t, v)) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(v);
    }
  };
  integer("cell", record.cell);
  integer("variant", record.variant);
  integer("n", record.n);
  integer("seed", record.seed);
  integer("stabilization_round", record.stabilization_round);
  integer("rounds", record.rounds);
  integer("messages", record.messages);
  integer("bandwidth_bits", record.bandwidth_bits);
  integer("bits", record.bits);
  const auto boolean = [&tokens](const char* key, bool& out) {
    if (const std::string* t = find(tokens, key)) out = (*t == "true");
  };
  boolean("success", record.success);
  boolean("exact", record.exact);
  boolean("predicted", record.predicted);
  const auto real = [&tokens](const char* key, double& out) {
    const std::string* t = find(tokens, key);
    double v = 0.0;
    if (t != nullptr && to_double(*t, v)) out = v;
  };
  real("deadline_ms", record.deadline_ms);
  real("wall_ms", record.wall_ms);
  // error is numeric, or the string spelling of a non-finite value.
  real("error", record.error);
  if (const std::string* s = find(strings, "error")) {
    if (*s == "inf") {
      record.error = std::numeric_limits<double>::infinity();
    } else if (*s == "-inf") {
      record.error = -std::numeric_limits<double>::infinity();
    }
    // "nan" keeps the default quiet_NaN.
  }

  // Fail closed: a line is trusted only when the record renders back to it
  // byte for byte, so no corrupt or missing field can import a value the
  // line does not hold. The one field ignored is `payload`, which the
  // format no longer writes (it followed `messages`).
  std::string expected = line;
  if (const std::string* payload = find(tokens, "payload")) {
    const std::string field = ",\"payload\":" + *payload;
    const std::size_t at = expected.find(field);
    if (at == std::string::npos) return std::nullopt;
    expected.erase(at, field.size());
  }
  if (to_json(record, true) != expected) return std::nullopt;
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
  std::stable_sort(records.begin(), records.end(),
                   [](const CellRecord& a, const CellRecord& b) {
                     if (a.cell != b.cell) return a.cell < b.cell;
                     return a.key < b.key;
                   });
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
