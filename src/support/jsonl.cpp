#include "support/jsonl.hpp"

#include <cmath>
#include <cstdio>

namespace anonet {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::begin_field(const std::string& key) {
  if (!first_) body_ += ",";
  first_ = false;
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
  return *this;
}

JsonObject& JsonObject::field(const std::string& key,
                              const std::string& value) {
  begin_field(key);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field(const std::string& key, const char* value) {
  return field(key, std::string(value));
}

JsonObject& JsonObject::field(const std::string& key, std::int64_t value) {
  begin_field(key).body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(const std::string& key, int value) {
  return field(key, static_cast<std::int64_t>(value));
}

JsonObject& JsonObject::field(const std::string& key, double value) {
  begin_field(key).body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::field(const std::string& key, bool value) {
  begin_field(key).body_ += value ? "true" : "false";
  return *this;
}

}  // namespace anonet
