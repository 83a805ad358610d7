//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal JSON document model and recursive-descent parser — the
/// read-side twin of support/JsonWriter. The padd daemon's protocol is
/// newline-delimited JSON, so the server must *parse* untrusted input,
/// which the streaming writer never needed to do. Deliberately small:
/// no comments, no trailing commas, no surrogate-pair decoding beyond
/// pass-through (\uXXXX below 0x80 decodes, the rest is preserved
/// escaped), a hard nesting-depth cap so adversarial frames cannot
/// overflow the stack, and object members kept in insertion order (the
/// protocol layer echoes fields back deterministically).
///
/// Numbers are stored as double plus an exact-int64 flag: asInt64()
/// round-trips integers written by JsonWriter bit-exactly, and
/// isInt64() tells integral, in-range numbers from everything else.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SUPPORT_JSON_H
#define PADX_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace padx {
namespace support {

class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : K(Kind::Null) {}
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool B) {
    JsonValue V;
    V.K = Kind::Bool;
    V.Boolean = B;
    return V;
  }
  static JsonValue number(double D) {
    JsonValue V;
    V.K = Kind::Number;
    V.Num = D;
    V.IntExact = false;
    return V;
  }
  static JsonValue integer(int64_t I) {
    JsonValue V;
    V.K = Kind::Number;
    V.Num = static_cast<double>(I);
    V.Int = I;
    V.IntExact = true;
    return V;
  }
  static JsonValue string(std::string S) {
    JsonValue V;
    V.K = Kind::String;
    V.Str = std::move(S);
    return V;
  }
  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return Boolean; }
  double asDouble() const { return Num; }
  /// True when the number is integral and representable as int64 (an
  /// exact integer token, or a double like 3.0 or 1e3).
  bool isInt64() const {
    return K == Kind::Number &&
           (IntExact || (Num == std::trunc(Num) && Num >= -0x1p63 &&
                         Num < 0x1p63));
  }
  /// The exact integer when isInt64(); otherwise the double truncated
  /// toward zero and saturated to the int64 range, so an out-of-range
  /// value never reaches an undefined conversion. Protocol fields check
  /// isInt64() first and reject everything else.
  int64_t asInt64() const {
    if (IntExact)
      return Int;
    if (Num >= 0x1p63)
      return std::numeric_limits<int64_t>::max();
    if (Num < -0x1p63)
      return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(Num);
  }
  const std::string &asString() const { return Str; }

  const std::vector<JsonValue> &elements() const { return Elems; }
  std::vector<JsonValue> &elements() { return Elems; }
  const std::vector<Member> &members() const { return Members; }
  std::vector<Member> &members() { return Members; }

  /// First member named \p Name, or nullptr. Linear scan: protocol
  /// objects have a handful of fields.
  const JsonValue *find(std::string_view Name) const {
    for (const Member &M : Members)
      if (M.first == Name)
        return &M.second;
    return nullptr;
  }

  /// \name Typed field accessors with defaults (object values only).
  /// A present-but-wrong-kind field returns the default, the same as an
  /// absent one; the protocol layer validates kinds (and integer
  /// ranges) explicitly where a wrong kind must be a hard error.
  /// @{
  int64_t getInt(std::string_view Name, int64_t Default) const {
    const JsonValue *V = find(Name);
    return V && V->isNumber() ? V->asInt64() : Default;
  }
  double getDouble(std::string_view Name, double Default) const {
    const JsonValue *V = find(Name);
    return V && V->isNumber() ? V->asDouble() : Default;
  }
  bool getBool(std::string_view Name, bool Default) const {
    const JsonValue *V = find(Name);
    return V && V->isBool() ? V->asBool() : Default;
  }
  std::string getString(std::string_view Name,
                        std::string Default) const {
    const JsonValue *V = find(Name);
    return V && V->isString() ? V->asString() : std::move(Default);
  }
  /// @}

private:
  Kind K;
  bool Boolean = false;
  double Num = 0;
  int64_t Int = 0;
  bool IntExact = false;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<Member> Members;
};

/// Maximum container nesting parseJson accepts. Deep enough for every
/// document padx emits (SARIF nests ~8 levels); shallow enough that the
/// recursive parser never approaches stack exhaustion on hostile input.
inline constexpr unsigned kJsonMaxDepth = 64;

/// Parses \p Text as one complete JSON document. Trailing
/// non-whitespace, depth beyond kJsonMaxDepth, and every grammar
/// violation fail with a byte-offset-carrying message in \p Error
/// (when non-null). No exceptions, no partial results.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Error = nullptr);

} // namespace support
} // namespace padx

#endif // PADX_SUPPORT_JSON_H
