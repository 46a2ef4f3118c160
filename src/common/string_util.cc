#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace silofuse {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

bool ParseDouble(std::string_view text, double* value) {
  std::string trimmed = Trim(text);
  if (trimmed.empty()) return false;
  char* end = nullptr;
  double parsed = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) return false;
  if (!std::isfinite(parsed)) return false;
  *value = parsed;
  return true;
}

std::optional<bool> ParseFlag(std::string_view text) {
  std::string word(text);
  for (char& c : word) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (word == "1" || word == "on" || word == "true" || word == "yes") {
    return true;
  }
  if (word == "0" || word == "off" || word == "false" || word == "no") {
    return false;
  }
  return std::nullopt;
}

bool EnvFlag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return ParseFlag(value).value_or(fallback);
}

}  // namespace silofuse
