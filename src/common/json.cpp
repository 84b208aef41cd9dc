#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace fibersim::json {

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Value::make_null() { return Value{}; }

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double d, std::string raw) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  v.string_ = std::move(raw);
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_object(Members members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

Value Value::make_array(Items items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

namespace {

/// Recursive-descent parser over an immutable view. Every method either
/// advances pos_ past a complete construct or records an error; nothing
/// throws, nothing reads past size().
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    skip_ws();
    std::optional<Value> v = parse_value(0);
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON value");
        v.reset();
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + strfmt(" (at byte %zu)", pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const std::size_t start = pos_;
    std::optional<Value> v;
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) return std::nullopt;
        v = Value::make_null();
        break;
      case 't':
        if (!literal("true")) return std::nullopt;
        v = Value::make_bool(true);
        break;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v = Value::make_bool(false);
        break;
      case '"': {
        std::string s;
        if (!parse_string(&s)) return std::nullopt;
        v = Value::make_string(std::move(s));
        break;
      }
      case '{':
        v = parse_object(depth);
        break;
      case '[':
        v = parse_array(depth);
        break;
      default:
        v = parse_number();
        break;
    }
    // Stamp where the value began so semantic validators downstream can
    // report byte offsets with the same convention as grammar errors.
    if (v) v->set_offset(start);
    return v;
  }

  std::optional<Value> parse_object(int depth) {
    ++pos_;  // '{'
    Members members;
    skip_ws();
    if (eat('}')) return Value::make_object(std::move(members));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      std::string key;
      if (!parse_string(&key)) return std::nullopt;
      for (const auto& [k, v] : members) {
        if (k == key) {
          fail("duplicate object key '" + key + "'");
          return std::nullopt;
        }
      }
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      skip_ws();
      std::optional<Value> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(key), std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return Value::make_object(std::move(members));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array(int depth) {
    ++pos_;  // '['
    Items items;
    skip_ws();
    if (eat(']')) return Value::make_array(std::move(items));
    while (true) {
      skip_ws();
      std::optional<Value> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return Value::make_array(std::move(items));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == int_start) {
      pos_ = start;
      fail("invalid value");
      return std::nullopt;
    }
    // JSON forbids leading zeros ("01"); they hide octal-intent mistakes.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      pos_ = start;
      fail("number has a leading zero");
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac_start) {
        fail("digits required after decimal point");
        return std::nullopt;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp_start) {
        fail("digits required in exponent");
        return std::nullopt;
      }
    }
    std::string raw(text_.substr(start, pos_ - start));
    errno = 0;
    const double v = std::strtod(raw.c_str(), nullptr);
    if (!std::isfinite(v)) {
      fail("number out of double range");
      return std::nullopt;
    }
    return Value::make_number(v, std::move(raw));
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote (caller checked)
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_hex4(std::uint32_t* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

// ----- Writer --------------------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// `%.{precision}g` of a finite double (std::to_chars is specified to match
/// printf in the C locale).
std::string_view format_g(double v, int precision, char (&buf)[32]) {
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  return std::string_view(buf, static_cast<std::size_t>(r.ptr - buf));
}

void require_finite(double v) {
  FS_REQUIRE(std::isfinite(v), "cannot serialise a non-finite number");
}

}  // namespace

void Writer::begin_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += ',';
  if (layout_ == Layout::kIndented) {
    if (!frame.one_line) {
      out_ += '\n';
      out_.append(2 * stack_.size(), ' ');
    } else if (!frame.empty) {
      out_ += ' ';
    }
  }
  frame.empty = false;
}

Writer& Writer::open(char bracket, bool one_line) {
  begin_item();
  out_ += bracket;
  stack_.push_back(
      Frame{one_line || (!stack_.empty() && stack_.back().one_line), true});
  return *this;
}

Writer& Writer::close(char bracket) {
  FS_REQUIRE(!stack_.empty() && !after_key_, "json::Writer: unbalanced close");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (layout_ == Layout::kIndented && !frame.one_line && !frame.empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

Writer& Writer::begin_object(bool one_line) { return open('{', one_line); }
Writer& Writer::end_object() { return close('}'); }
Writer& Writer::begin_array(bool one_line) { return open('[', one_line); }
Writer& Writer::end_array() { return close(']'); }

Writer& Writer::key(std::string_view name) {
  begin_item();
  append_escaped(out_, name);
  out_ += layout_ == Layout::kIndented ? ": " : ":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  begin_item();
  append_escaped(out_, s);
  return *this;
}

Writer& Writer::value(bool b) { return raw(b ? "true" : "false"); }

Writer& Writer::value(double v) {
  require_finite(v);
  char buf[32];
  return raw(format_g(v, 17, buf));
}

Writer& Writer::shortest(double v) {
  require_finite(v);
  // 17 significant digits always round-trip an IEEE-754 binary64.
  char buf[32];
  for (int precision = 1; precision < 17; ++precision) {
    const std::string_view s = format_g(v, precision, buf);
    double back = 0.0;
    std::from_chars(s.data(), s.data() + s.size(), back);
    if (back == v) return raw(s);
  }
  return raw(format_g(v, 17, buf));
}

Writer& Writer::null() { return raw("null"); }

Writer& Writer::raw(std::string_view token) {
  begin_item();
  out_ += token;
  return *this;
}

std::string Writer::take() && {
  FS_REQUIRE(stack_.empty() && !after_key_ && !out_.empty(),
             "json::Writer: document is not complete");
  if (layout_ == Layout::kIndented) out_ += '\n';
  return std::move(out_);
}

}  // namespace fibersim::json
