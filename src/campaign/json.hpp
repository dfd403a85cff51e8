// Minimal JSON value + parser/printer for the campaign result store.
//
// Scope is deliberately small: the only JSON this repo reads is the JSONL it
// wrote itself (one flat-ish object per job), so this is a strict RFC-8259
// subset — no comments, no trailing commas — with two conveniences:
// doubles are printed with round-trip precision (%.17g) and non-finite
// numbers are written as null (JSON has no NaN/Inf) and read back as NaN.
// Non-negative integer tokens that fit 64 bits are also kept exactly, so
// counters and seeds above 2^53 survive a round trip.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rcast::campaign::json {

/// Thrown on malformed input; carries the byte offset of the error.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value;
using Array = std::vector<Value>;
/// std::map keeps keys sorted, which the writer never relies on (it emits
/// fields in insertion-independent, hand-chosen order via Writer), and the
/// reader only looks keys up.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double d) : type_(Type::kNumber), num_(d) {}
  Value(std::int64_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {
    if (i >= 0) set_u64(static_cast<std::uint64_t>(i));
  }
  Value(std::uint64_t u) : type_(Type::kNumber), num_(static_cast<double>(u)) {
    set_u64(u);
  }
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(Array a) : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o) : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { require(Type::kBool); return bool_; }
  /// Numbers only; a null reads back as NaN (the writer's encoding for
  /// non-finite doubles).
  double as_double() const;
  /// Exact unsigned integers only: throws on null, negative, fractional or
  /// exponent-form numbers and on integers beyond 2^64-1.
  std::uint64_t as_u64() const;
  const std::string& as_string() const { require(Type::kString); return str_; }
  const Array& as_array() const { require(Type::kArray); return *arr_; }
  const Object& as_object() const { require(Type::kObject); return *obj_; }

  /// Object member access; throws if not an object or key missing.
  const Value& at(const std::string& key) const;
  /// Object member access; returns nullptr if absent (or not an object).
  const Value* find(const std::string& key) const;

 private:
  void require(Type t) const;
  void set_u64(std::uint64_t u) {
    u64_ = u;
    is_u64_ = true;
  }

  Type type_;
  bool bool_ = false;
  bool is_u64_ = false;  // number was a non-negative integer that fits u64_
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parses exactly one JSON value (trailing whitespace allowed, anything else
/// is an error). Throws ParseError.
Value parse(std::string_view text);

/// Streaming writer that preserves field order — the result store depends on
/// deterministic output bytes for the resume byte-identity guarantee.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view k);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double d);
  Writer& value(std::uint64_t u);
  Writer& value(std::int64_t i);
  Writer& value(bool b);
  Writer& null();

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  void write_escaped(std::string_view s);

  std::string out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> need_comma_;
  bool after_key_ = false;
};

}  // namespace rcast::campaign::json
