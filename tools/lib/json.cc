#include "lib/json.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace silofuse {
namespace json {

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string Value::StringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

namespace {

constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Value> Run() {
    SkipWhitespace();
    Value root;
    SF_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        SF_RETURN_NOT_OK(ParseString(&s));
        *out = Value(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = Value(true);
          return Status::OK();
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = Value(false);
          return Status::OK();
        }
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = Value();
          return Status::OK();
        }
        return Error("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    *out = Value::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      SF_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      Value member;
      SF_RETURN_NOT_OK(ParseValue(&member, depth + 1));
      (*out->mutable_object())[std::move(key)] = std::move(member);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    *out = Value::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      Value element;
      SF_RETURN_NOT_OK(ParseValue(&element, depth + 1));
      out->mutable_array()->push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are passed
          // through as two 3-byte sequences (telemetry never emits them).
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
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    *out = Value(value);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(const std::string& text) { return Parser(text).Run(); }

Result<Value> ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Parse(buffer.str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace json
}  // namespace silofuse
