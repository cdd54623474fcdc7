//===- Json.cpp - Minimal JSON parser ---------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cstdlib>

using namespace pec;
using namespace pec::json;

ValuePtr Value::mkNull() { return std::make_shared<Value>(); }

ValuePtr Value::mkBool(bool V) {
  auto P = std::make_shared<Value>();
  P->K = Kind::Bool;
  P->B = V;
  return P;
}

ValuePtr Value::mkNumber(double V) {
  auto P = std::make_shared<Value>();
  P->K = Kind::Number;
  P->N = V;
  return P;
}

ValuePtr Value::mkString(std::string V) {
  auto P = std::make_shared<Value>();
  P->K = Kind::String;
  P->S = std::move(V);
  return P;
}

ValuePtr Value::mkArray(std::vector<ValuePtr> V) {
  auto P = std::make_shared<Value>();
  P->K = Kind::Array;
  P->A = std::move(V);
  return P;
}

ValuePtr Value::mkObject(std::map<std::string, ValuePtr> V) {
  auto P = std::make_shared<Value>();
  P->K = Kind::Object;
  P->O = std::move(V);
  return P;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  ValuePtr run() {
    ValuePtr V = parseValue();
    if (!V)
      return nullptr;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after value");
    return V;
  }

private:
  ValuePtr fail(const char *Msg) {
    if (Error)
      *Error = std::string(Msg) + " at offset " + std::to_string(Pos);
    return nullptr;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  ValuePtr parseValue() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return nullptr;
      return Value::mkString(std::move(S));
    }
    if (C == 't')
      return literal("true") ? Value::mkBool(true) : fail("bad literal");
    if (C == 'f')
      return literal("false") ? Value::mkBool(false) : fail("bad literal");
    if (C == 'n')
      return literal("null") ? Value::mkNull() : fail("bad literal");
    return parseNumber();
  }

  ValuePtr parseNumber() {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    char *End = nullptr;
    std::string Num = Text.substr(Start, Pos - Start);
    double V = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    return Value::mkNumber(V);
  }

  bool parseString(std::string &Out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size()) {
          fail("truncated \\u escape");
          return false;
        }
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code += static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code += static_cast<unsigned>(H - 'A' + 10);
          else {
            fail("bad \\u escape");
            return false;
          }
        }
        // UTF-8 encode (surrogate pairs are not recombined; escapeJson
        // never emits them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        fail("unknown escape");
        return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  ValuePtr parseArray() {
    consume('[');
    std::vector<ValuePtr> Items;
    skipWs();
    if (consume(']'))
      return Value::mkArray(std::move(Items));
    while (true) {
      ValuePtr V = parseValue();
      if (!V)
        return nullptr;
      Items.push_back(std::move(V));
      if (consume(','))
        continue;
      if (consume(']'))
        return Value::mkArray(std::move(Items));
      return fail("expected ',' or ']'");
    }
  }

  ValuePtr parseObject() {
    consume('{');
    std::map<std::string, ValuePtr> Members;
    skipWs();
    if (consume('}'))
      return Value::mkObject(std::move(Members));
    while (true) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return nullptr;
      if (!consume(':'))
        return fail("expected ':'");
      ValuePtr V = parseValue();
      if (!V)
        return nullptr;
      Members[Key] = std::move(V);
      if (consume(','))
        continue;
      if (consume('}'))
        return Value::mkObject(std::move(Members));
      return fail("expected ',' or '}'");
    }
  }

  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace

ValuePtr json::parse(const std::string &Text, std::string *Error) {
  return Parser(Text, Error).run();
}
