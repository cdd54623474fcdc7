//===- Json.h - Minimal JSON value model and parser -------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser: it reads run journals back
/// (`pec report timeline`, `pec prove --trace`) and validates the
/// machine-readable reports the pipeline emits (`pec_report_check`, the
/// tests). Zero dependencies by design; not a general-purpose library —
/// numbers are held as doubles and the parser favors clarity over speed.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_JSON_H
#define PEC_SUPPORT_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pec {
namespace json {

enum class Kind { Null, Bool, Number, String, Array, Object };

class Value;
using ValuePtr = std::shared_ptr<Value>;

class Value {
public:
  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return B; }
  double numberValue() const { return N; }
  const std::string &stringValue() const { return S; }
  const std::vector<ValuePtr> &array() const { return A; }
  const std::map<std::string, ValuePtr> &object() const { return O; }

  /// Object member lookup; nullptr when absent or not an object.
  ValuePtr get(const std::string &Key) const {
    auto It = O.find(Key);
    return It == O.end() ? nullptr : It->second;
  }

  static ValuePtr mkNull();
  static ValuePtr mkBool(bool V);
  static ValuePtr mkNumber(double V);
  static ValuePtr mkString(std::string V);
  static ValuePtr mkArray(std::vector<ValuePtr> V);
  static ValuePtr mkObject(std::map<std::string, ValuePtr> V);

private:
  Kind K = Kind::Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<ValuePtr> A;
  std::map<std::string, ValuePtr> O;
};

/// Parses \p Text. On failure returns nullptr and, if \p Error is given,
/// stores a one-line description with the byte offset.
ValuePtr parse(const std::string &Text, std::string *Error = nullptr);

} // namespace json
} // namespace pec

#endif // PEC_SUPPORT_JSON_H
