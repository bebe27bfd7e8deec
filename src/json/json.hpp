// Dependency-free JSON with a relaxed dialect for projection-view scripts.
//
// The paper (Fig. 5) specifies projection views with key-value scripts that
// use unquoted keys and trailing commas; parse() accepts strict JSON plus
// that relaxed dialect (unquoted identifier keys, single-quoted strings,
// trailing commas, // and /* */ comments). parse_script() additionally
// accepts a comma-separated sequence of top-level objects, which is how the
// scripts in the paper are written.
//
// Reader and Writer are the one lexer and the one serializer. parse() and
// dump() build and walk a Value tree through them; the run-file format
// (metrics/run_metrics.cpp) streams through them with no tree at all.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace dv::json {

class Value;
using Array = std::vector<Value>;

/// Object preserving insertion order (deterministic serialization).
class Object {
 public:
  Value& operator[](const std::string& key);           // inserts if missing
  const Value& at(const std::string& key) const;       // throws if missing
  const Value* find(const std::string& key) const;     // nullptr if missing
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool operator==(const Object&) const = default;

 private:
  std::vector<std::pair<std::string, Value>> items_;
};

enum class Type { Null, Bool, Number, String, Array, Object };

/// A JSON value (tagged union with value semantics).
class Value {
 public:
  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double d) : type_(Type::Number), num_(d) {}
  Value(int i) : type_(Type::Number), num_(i) {}
  Value(unsigned int i) : type_(Type::Number), num_(i) {}
  Value(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(std::size_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::String), str_(s) {}
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Value(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws when not an object / key missing.
  const Value& at(const std::string& key) const;
  /// Optional lookups with defaults.
  double get_number(const std::string& key, double dflt) const;
  std::string get_string(const std::string& key,
                         const std::string& dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;
  const Value* find(const std::string& key) const;

  bool operator==(const Value&) const = default;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Pull cursor over strict or relaxed JSON text (see the header comment).
/// Every read first skips whitespace and comments. Containers are read as
///   r.begin_array();  for (std::size_t i = 0; r.next_item(i); ++i) {...}
///   r.begin_object(); for (std::size_t i = 0; r.next_key(i, key); ++i) {...}
/// reading exactly one value per pass; next_item/next_key take the commas
/// (a trailing one too) and consume the closing bracket when they return
/// false. Containers nest at most kMaxDepth deep, so hostile input cannot
/// exhaust the stack of a recursive reader. Errors are dv::Error
/// "json parse error at line N, column M: ...".
class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  /// Next significant character; '\0' at the end of input.
  char peek();
  bool at_end();
  bool at_number();  ///< next token starts a number (sign or digit)
  bool at_string();  ///< next token starts a quoted string
  bool consume(char c);

  static constexpr int kMaxDepth = 512;

  void begin_array() { open('['); }
  bool next_item(std::size_t i) { return next(i, ']'); }
  void begin_object() { open('{'); }
  bool next_key(std::size_t i, std::string& key);

  /// A number token, converted exactly as strtod() would.
  double number();
  /// number() rounded to the nearest integer (llround).
  std::int64_t integer() {
    return static_cast<std::int64_t>(std::llround(number()));
  }
  std::string string();
  /// A bare word such as true, false or null (letters only; may be empty).
  std::string_view word();
  /// Reads and discards one value, checking its syntax.
  void skip_value();
  /// Requires that only whitespace and comments remain.
  void finish();

  /// Byte offset of the cursor (call peek() first to skip whitespace);
  /// seek() returns to an offset pos() gave.
  std::size_t pos() const { return pos_; }
  void seek(std::size_t pos) { pos_ = pos; }
  Error error(const std::string& msg) const { return error_at(pos_, msg); }
  Error error_at(std::size_t pos, const std::string& msg) const;

 private:
  void skip_ws();
  void expect(char c);
  void open(char c);
  bool next(std::size_t i, char close);
  void read_string(std::string* out);

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Appends JSON text to one string. Numbers print as integers when
/// integral and below 1e15 in magnitude, otherwise as printf's "%.17g";
/// NaN and infinity print as null (JSON has neither). Strings are quoted
/// with JSON escapes; other control characters become 4-hex-digit escapes.
class Writer {
 public:
  explicit Writer(std::size_t reserve = 0) { out_.reserve(reserve); }

  Writer& raw(char c) {
    out_.push_back(c);
    return *this;
  }
  Writer& raw(std::string_view s) {
    out_.append(s);
    return *this;
  }
  Writer& number(double d);
  Writer& string(std::string_view s);

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Parses strict or relaxed JSON (see header comment). Throws dv::Error.
Value parse(const std::string& text);

/// Parses a projection-view script: either a single value, or a
/// comma-separated sequence of objects, returned as an Array.
Value parse_script(const std::string& text);

/// Serializes; indent < 0 means compact.
std::string dump(const Value& v, int indent = -1);

}  // namespace dv::json
