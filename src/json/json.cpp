#include "json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace dv::json {

// ---------------------------------------------------------------- Object

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Value());
  return items_.back().second;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Object::at(const std::string& key) const {
  const Value* v = find(key);
  if (!v) throw Error("json object has no key '" + key + "'");
  return *v;
}

// ---------------------------------------------------------------- Value

bool Value::as_bool() const {
  DV_REQUIRE(is_bool(), "json value is not a bool");
  return bool_;
}

double Value::as_number() const {
  DV_REQUIRE(is_number(), "json value is not a number");
  return num_;
}

std::int64_t Value::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Value::as_string() const {
  DV_REQUIRE(is_string(), "json value is not a string");
  return str_;
}

const Array& Value::as_array() const {
  DV_REQUIRE(is_array(), "json value is not an array");
  return arr_;
}

Array& Value::as_array() {
  DV_REQUIRE(is_array(), "json value is not an array");
  return arr_;
}

const Object& Value::as_object() const {
  DV_REQUIRE(is_object(), "json value is not an object");
  return obj_;
}

Object& Value::as_object() {
  DV_REQUIRE(is_object(), "json value is not an object");
  return obj_;
}

const Value& Value::at(const std::string& key) const {
  return as_object().at(key);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  return obj_.find(key);
}

double Value::get_number(const std::string& key, double dflt) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_number() : dflt;
}

std::string Value::get_string(const std::string& key,
                              const std::string& dflt) const {
  const Value* v = find(key);
  return v && v->is_string() ? v->as_string() : dflt;
}

bool Value::get_bool(const std::string& key, bool dflt) const {
  const Value* v = find(key);
  return v && v->is_bool() ? v->as_bool() : dflt;
}

// ---------------------------------------------------------------- Reader

namespace {

bool is_space(char c) {
  // The "C" locale's isspace set.
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Characters that can continue a number token past its digits.
bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' ||
         c == '+';
}

bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

}  // namespace

void Reader::skip_ws() {
  for (;;) {
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
    if (pos_ + 1 < s_.size() && s_[pos_] == '/' && s_[pos_ + 1] == '/') {
      while (pos_ < s_.size() && s_[pos_] != '\n') ++pos_;
      continue;
    }
    if (pos_ + 1 < s_.size() && s_[pos_] == '/' && s_[pos_ + 1] == '*') {
      const std::size_t close = s_.find("*/", pos_ + 2);
      if (close == std::string_view::npos) {
        pos_ = s_.size();
        throw error("unterminated block comment");
      }
      pos_ = close + 2;
      continue;
    }
    return;
  }
}

char Reader::peek() {
  skip_ws();
  return pos_ < s_.size() ? s_[pos_] : '\0';
}

bool Reader::at_end() {
  skip_ws();
  return pos_ >= s_.size();
}

bool Reader::at_number() {
  const char c = peek();
  return c == '-' || c == '+' || is_digit(c);
}

bool Reader::at_string() {
  const char c = peek();
  return c == '"' || c == '\'';
}

bool Reader::consume(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

void Reader::expect(char c) {
  if (!consume(c)) throw error(std::string("expected '") + c + "'");
}

void Reader::open(char c) {
  expect(c);
  if (++depth_ > kMaxDepth) {
    throw error("nesting deeper than " + std::to_string(kMaxDepth) +
                " levels");
  }
}

bool Reader::next(std::size_t i, char close) {
  if (i > 0 && peek() != close) {
    if (!consume(',')) {
      throw error(std::string("expected ',' or '") + close + "'");
    }
  }
  if (!consume(close)) return true;
  --depth_;
  return false;
}

bool Reader::next_key(std::size_t i, std::string& key) {
  if (!next(i, '}')) return false;
  if (at_string()) {
    key.clear();
    read_string(&key);
  } else {
    // Relaxed dialect: bare identifier key.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (is_alpha(s_[pos_]) || is_digit(s_[pos_]) || s_[pos_] == '_' ||
            s_[pos_] == '$')) {
      ++pos_;
    }
    if (pos_ == start) throw error("expected object key");
    key.assign(s_.substr(start, pos_ - start));
  }
  expect(':');
  return true;
}

double Reader::number() {
  if (!at_number()) throw error("expected a number");
  const std::size_t start = pos_;
  if (s_[pos_] == '-' || s_[pos_] == '+') ++pos_;
  // Fast path: up to 15 plain digits are an exact integer, which is what
  // strtod returns for them (most values in a run file are small counts).
  std::uint64_t whole = 0;
  const std::size_t digits_at = pos_;
  while (pos_ < s_.size() && is_digit(s_[pos_]) && pos_ - digits_at < 15) {
    whole = whole * 10 + static_cast<std::uint64_t>(s_[pos_++] - '0');
  }
  if (pos_ > digits_at && (pos_ >= s_.size() || !is_number_char(s_[pos_]))) {
    const auto v = static_cast<double>(whole);
    return s_[start] == '-' ? -v : v;
  }
  while (pos_ < s_.size()) {
    const char c = s_[pos_];
    if (is_digit(c) || c == '.' || c == 'e' || c == 'E' ||
        ((c == '-' || c == '+') &&
         (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E'))) {
      ++pos_;
    } else {
      break;
    }
  }
  const char* first = s_.data() + start;
  const char* last = s_.data() + pos_;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec == std::errc() && end == last) return v;
  // from_chars rejects a leading '+' and out-of-range exponents, which
  // strtod accepts (as +-HUGE_VAL or a denormal/zero); strtod decides.
  const std::string tok(first, last);
  char* tok_end = nullptr;
  v = std::strtod(tok.c_str(), &tok_end);
  if (tok_end == tok.c_str() || *tok_end != '\0') {
    throw error_at(start, "invalid number: " + tok);
  }
  return v;
}

std::string Reader::string() {
  std::string out;
  read_string(&out);
  return out;
}

void Reader::read_string(std::string* out) {
  if (!at_string()) throw error("expected a string");
  const std::size_t open = pos_;
  const char quote = s_[pos_++];
  for (;;) {
    std::size_t run = pos_;
    while (run < s_.size() && s_[run] != quote && s_[run] != '\\') ++run;
    if (out) out->append(s_.substr(pos_, run - pos_));
    pos_ = run;
    if (pos_ >= s_.size()) throw error_at(open, "unterminated string");
    if (s_[pos_++] == quote) return;
    if (pos_ >= s_.size()) throw error("unterminated escape");
    const char c = s_[pos_++];
    char plain = 0;
    switch (c) {
      case 'n': plain = '\n'; break;
      case 't': plain = '\t'; break;
      case 'r': plain = '\r'; break;
      case 'b': plain = '\b'; break;
      case 'f': plain = '\f'; break;
      case '/':
      case '\\':
      case '"':
      case '\'': plain = c; break;
      case 'u': {
        if (pos_ + 4 > s_.size()) throw error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = s_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else throw error("invalid \\u escape");
        }
        if (!out) continue;
        // Encode as UTF-8 (basic multilingual plane only).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        continue;
      }
      default:
        throw error(std::string("invalid escape \\") + c);
    }
    if (out) out->push_back(plain);
  }
}

std::string_view Reader::word() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < s_.size() && is_alpha(s_[pos_])) ++pos_;
  return s_.substr(start, pos_ - start);
}

void Reader::skip_value() {
  const char c = peek();
  if (c == '{') {
    begin_object();
    std::string key;
    for (std::size_t i = 0; next_key(i, key); ++i) skip_value();
  } else if (c == '[') {
    begin_array();
    for (std::size_t i = 0; next_item(i); ++i) skip_value();
  } else if (at_string()) {
    read_string(nullptr);
  } else if (at_number()) {
    number();
  } else if (at_end()) {
    throw error("unexpected end of input");
  } else {
    const std::string_view w = word();
    if (w != "true" && w != "false" && w != "null") {
      throw error("unexpected token '" + std::string(w) + "'");
    }
  }
}

void Reader::finish() {
  if (!at_end()) throw error("trailing content after json value");
}

Error Reader::error_at(std::size_t pos, const std::string& msg) const {
  std::size_t line = 1, col = 1;
  for (std::size_t i = 0; i < pos && i < s_.size(); ++i) {
    if (s_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return Error("json parse error at line " + std::to_string(line) +
               ", column " + std::to_string(col) + ": " + msg);
}

// ------------------------------------------------------------- DOM parse

namespace {

Value read_value(Reader& r) {
  switch (r.peek()) {
    case '{': {
      Object obj;
      r.begin_object();
      std::string key;
      for (std::size_t i = 0; r.next_key(i, key); ++i) obj[key] = read_value(r);
      return Value(std::move(obj));
    }
    case '[': {
      Array arr;
      r.begin_array();
      for (std::size_t i = 0; r.next_item(i); ++i) arr.push_back(read_value(r));
      return Value(std::move(arr));
    }
    default:
      break;
  }
  if (r.at_string()) return Value(r.string());
  if (r.at_number()) return Value(r.number());
  if (r.at_end()) throw r.error("unexpected end of input");
  const std::string_view w = r.word();
  if (w == "true") return Value(true);
  if (w == "false") return Value(false);
  if (w == "null") return Value(nullptr);
  throw r.error("unexpected token '" + std::string(w) + "'");
}

}  // namespace

Value parse(const std::string& text) {
  Reader r(text);
  Value v = read_value(r);
  r.finish();
  return v;
}

Value parse_script(const std::string& text) {
  Reader r(text);
  Array items;
  items.push_back(read_value(r));
  while (!r.at_end()) {
    if (!r.consume(',')) throw r.error("expected ',' between script entries");
    if (r.at_end()) break;  // trailing comma
    items.push_back(read_value(r));
  }
  if (items.size() == 1 && items[0].is_array()) return items[0];
  return Value(std::move(items));
}

// ---------------------------------------------------------------- Writer

Writer& Writer::number(double d) {
  if (!std::isfinite(d)) return raw("null");
  char buf[32];
  std::to_chars_result r{};
  if (std::fabs(d) < 1e15 &&
      static_cast<double>(static_cast<long long>(d)) == d) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    // Same text as printf("%.17g").
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      17);
  }
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default:
        out_ += "\\u00";
        out_.push_back(kHex[c >> 4]);
        out_.push_back(kHex[c & 0xF]);
    }
  }
  out_.append(s.substr(run));
  out_.push_back('"');
  return *this;
}

namespace {

void dump_impl(Writer& w, const Value& v, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent >= 0) {
      w.raw('\n');
      for (int i = 0; i < indent * d; ++i) w.raw(' ');
    }
  };
  switch (v.type()) {
    case Type::Null: w.raw("null"); break;
    case Type::Bool: w.raw(v.as_bool() ? "true" : "false"); break;
    case Type::Number: w.number(v.as_number()); break;
    case Type::String: w.string(v.as_string()); break;
    case Type::Array: {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        w.raw("[]");
        break;
      }
      w.raw('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) w.raw(',');
        newline(depth + 1);
        dump_impl(w, arr[i], indent, depth + 1);
      }
      newline(depth);
      w.raw(']');
      break;
    }
    case Type::Object: {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        w.raw("{}");
        break;
      }
      w.raw('{');
      bool first = true;
      for (const auto& [k, val] : obj) {
        if (!first) w.raw(',');
        first = false;
        newline(depth + 1);
        w.string(k);
        w.raw(indent >= 0 ? ": " : ":");
        dump_impl(w, val, indent, depth + 1);
      }
      newline(depth);
      w.raw('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& v, int indent) {
  Writer w;
  dump_impl(w, v, indent, 0);
  return w.take();
}

}  // namespace dv::json
