// Minimal hardened JSON parser for untrusted input, and the JSON writer
// (no dependencies).
//
// The parser was built for the serve daemon's request codec: every byte
// arriving on the socket is hostile until proven otherwise, so it is strict
// and bounded rather than fast or featureful.
//
//   * strict grammar: one complete JSON value, nothing trailing; objects
//     reject duplicate keys (a smuggling vector — "which value wins" must
//     never be a question);
//   * bounded: nesting depth is capped (kMaxDepth) so a recursive descent
//     cannot be driven into stack exhaustion by ":[[[[[...";
//   * exact numbers: the raw token is preserved beside the double value, so
//     a 64-bit seed round-trips through parse_u64 without losing the low
//     bits to the double mantissa;
//   * errors are values, not exceptions: parse() returns nullopt and a
//     position-stamped message — malformed input is an expected case on a
//     server, never control flow by throw.
//
// Escapes: the usual \" \\ \/ \b \f \n \r \t plus \uXXXX (encoded to UTF-8,
// surrogate pairs supported). Unescaped control characters are rejected.
//
// Writer, below the parser, is the one serialiser every output goes through.
#pragma once

#include <charconv>
#include <concepts>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fibersim::json {

class Value;

/// Object members keep insertion order (std::vector of pairs) so tests can
/// assert byte-stable round-trips; lookup is linear — serve requests have a
/// dozen keys at most.
using Members = std::vector<std::pair<std::string, Value>>;
using Items = std::vector<Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  /// The number's raw source token ("18446744073709551615" stays exact).
  const std::string& raw_number() const { return string_; }
  const std::string& as_string() const { return string_; }
  const Members& members() const { return members_; }
  const Items& items() const { return items_; }

  /// Object member by key, or null when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Byte offset of this value's first character in the parsed text (0 for
  /// values built via make_*). Lets semantic validators — e.g. the processor
  /// descriptor loader — report "field X out of range (at byte N)" with the
  /// same offset convention as the parser's own grammar errors.
  std::size_t offset() const { return offset_; }
  void set_offset(std::size_t off) { offset_ = off; }

  static Value make_null();
  static Value make_bool(bool b);
  static Value make_number(double v, std::string raw);
  static Value make_string(std::string s);
  static Value make_object(Members members);
  static Value make_array(Items items);

 private:
  Kind kind_ = Kind::kNull;
  std::size_t offset_ = 0;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< string value, or a number's raw token
  Members members_;
  Items items_;
};

/// Maximum nesting depth parse() accepts.
inline constexpr int kMaxDepth = 32;

/// Parse exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed). On failure returns nullopt and, when `error` is
/// non-null, a one-line message with the byte offset.
std::optional<Value> parse(std::string_view text, std::string* error);

/// Serialises one JSON value into a string: the writer places commas and
/// whitespace, escapes strings (keys too) and formats numbers.
///
/// Layouts, each fixed by the byte contract of the formats that use it:
///   * kCompact  — no whitespace: trace, serve and journal lines;
///   * kIndented — 2-space indent, one item per line, `"key": value`, a
///     final newline: descriptors, calibration dumps, report JSON, BENCH
///     files. A container opened with one_line = true (and everything in
///     it) keeps its items on one line, separated by ", ".
///
/// value(double) writes `%.17g`; shortest(double) the shortest `%.{p}g`
/// that reads back to the same bits. Both throw fibersim::Error on a
/// non-finite value. raw() inserts an already-serialised token.
class Writer {
 public:
  enum class Layout { kCompact, kIndented };

  explicit Writer(Layout layout = Layout::kCompact) : layout_(layout) {}

  Writer& begin_object(bool one_line = false);
  Writer& end_object();
  Writer& begin_array(bool one_line = false);
  Writer& end_array();

  /// Next member's key; the following call writes its value.
  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  Writer& shortest(double v);
  Writer& null();
  Writer& raw(std::string_view token);

  /// key(name) then value(v).
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The finished document (every container closed).
  std::string take() &&;

 private:
  struct Frame {
    bool one_line;
    bool empty;
  };

  Writer& open(char bracket, bool one_line);
  Writer& close(char bracket);
  /// Separator and indentation before a key or a value that has no key.
  void begin_item();

  Layout layout_;
  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace fibersim::json
