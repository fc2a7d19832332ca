#include "netbase/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace zombiescope::netbase {

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    // No surrogate-pair joining: each \u escape encodes on its own.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          append_utf8(out, code);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any = false;
    const auto digits = [&] {
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      digits();
    }
    if (!any) return false;
    out.str.assign(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(out.str.c_str(), &end);
    return end == out.str.c_str() + out.str.size() && std::isfinite(out.number);
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxJsonDepth) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      if (consume('}')) return true;
      while (true) {
        std::string key;
        if (!string(key) || !consume(':')) return false;
        JsonValue member;
        if (!value(member, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(member));
        if (consume(',')) continue;
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      if (consume(']')) return true;
      while (true) {
        JsonValue element;
        if (!value(element, depth + 1)) return false;
        out.array.push_back(std::move(element));
        if (consume(',')) continue;
        return consume(']');
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    out.kind = JsonValue::Kind::kNumber;
    return number(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::optional<std::int64_t> JsonValue::integer() const {
  if (kind != Kind::kNumber) return std::nullopt;
  std::int64_t value = 0;
  const char* last = str.data() + str.size();
  const auto [ptr, ec] = std::from_chars(str.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

}  // namespace zombiescope::netbase
