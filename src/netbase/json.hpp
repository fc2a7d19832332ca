// netbase/json.hpp — the one JSON reader and string escaper.
//
// Every JSON document zombiescope reads goes through parse_json(): RIS-Live
// NDJSON lines from the network, zsobs-v1 BENCH snapshots, journal NDJSON
// files and the HTTP endpoint bodies zstop polls. It is a recursive-descent
// parser into a plain value tree:
//
//  * object members keep document order, and find() returns the first
//    member with a key, so a duplicate key cannot override an earlier one;
//  * nesting deeper than kMaxJsonDepth is rejected, so a hostile line of
//    '[' cannot exhaust the stack;
//  * numbers that overflow to ±inf are rejected, and a number's source
//    text is kept so integers wider than a double's 53-bit mantissa stay
//    exact (integer());
//  * \uXXXX escapes decode to UTF-8; trailing non-whitespace is rejected.
//
// append_json_escaped() is the one string escaper for JSON output.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zombiescope::netbase {

/// Containers nested deeper than this fail to parse.
inline constexpr int kMaxJsonDepth = 32;

/// A parsed JSON value.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's decoded value, or a number's source text.
  std::string str;
  std::vector<JsonValue> array;
  /// Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named `key`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// The number as an exact integer; nullopt unless this is a number
  /// written as an integer literal that fits in 64 bits.
  std::optional<std::int64_t> integer() const;

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }
};

/// Parses one complete document; nullopt on malformed input.
std::optional<JsonValue> parse_json(std::string_view text);

/// Appends `text` as the body of a JSON string literal (no quotes):
/// '"', '\\', '\n' and '\t' get their short escapes, other control
/// characters \u00XX; every other byte passes through.
void append_json_escaped(std::string& out, std::string_view text);
/// append_json_escaped into a fresh string.
std::string json_escape(std::string_view text);

}  // namespace zombiescope::netbase
