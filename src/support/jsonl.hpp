#pragma once

// Minimal JSON/JSONL formatting for the campaign records
// (campaign::MetricsSink). One escaping and number formatting path keeps a
// record's bytes a pure function of its field values, which the campaign
// subsystem relies on for its shard-invariance guarantee.
//
// Scope is deliberately tiny — flat objects of string/int/double/bool
// fields, one object per line — because that is all the repo emits. The
// reader lives in campaign/metrics.cpp: it walks the same field list as
// the writer, unescapes exactly what json_escape writes, and trusts a line
// only when it renders back to the same bytes.

#include <cstdint>
#include <string>

namespace anonet {

// Escapes `text` for inclusion in a JSON string literal (quotes, backslash,
// control characters; everything else passes through byte-for-byte).
[[nodiscard]] std::string json_escape(const std::string& text);

// Shortest-round-trip formatting for doubles (printf %.17g trimmed), with
// non-finite values mapped to JSON-legal strings: "inf", "-inf", "nan".
// JSON has no literal for them and the repo's consumers (python, jq) accept
// the string spelling unambiguously.
[[nodiscard]] std::string json_number(double value);

// Incremental builder for one flat JSON object rendered on a single line:
//   JsonObject o; o.field("a", 1).field("b", "x"); o.str() == R"({"a":1,"b":"x"})"
// Field order is insertion order — callers emit fields in a fixed order so
// identical records render to identical bytes.
class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value);
  JsonObject& field(const std::string& key, const char* value);
  JsonObject& field(const std::string& key, std::int64_t value);
  JsonObject& field(const std::string& key, int value);
  JsonObject& field(const std::string& key, double value);
  JsonObject& field(const std::string& key, bool value);

  [[nodiscard]] std::string str() const { return body_ + "}"; }

 private:
  JsonObject& begin_field(const std::string& key);
  std::string body_ = "{";
  bool first_ = true;
};

}  // namespace anonet
