#include "lib/scrape.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>

namespace silofuse {
namespace obs {

MetricsSnapshot MetricsSnapshotFromJson(const json::Value& doc) {
  MetricsSnapshot snapshot;
  if (const json::Value* counters = doc.Find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->AsObject()) {
      if (v.is_number()) {
        snapshot.counters[name] = static_cast<int64_t>(v.AsNumber());
      }
    }
  }
  if (const json::Value* gauges = doc.Find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, v] : gauges->AsObject()) {
      if (v.is_number()) snapshot.gauges[name] = v.AsNumber();
    }
  }
  if (const json::Value* histograms = doc.Find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, v] : histograms->AsObject()) {
      HistogramSnapshot h;
      if (const json::Value* bounds = v.Find("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const json::Value& b : bounds->AsArray()) {
          if (b.is_number()) h.bounds.push_back(b.AsNumber());
        }
      }
      if (const json::Value* counts = v.Find("counts");
          counts != nullptr && counts->is_array()) {
        for (const json::Value& c : counts->AsArray()) {
          if (c.is_number()) {
            h.bucket_counts.push_back(static_cast<int64_t>(c.AsNumber()));
          }
        }
      }
      h.count = static_cast<int64_t>(v.NumberOr("count", 0));
      h.sum = v.NumberOr("sum", 0.0);
      snapshot.histograms[name] = std::move(h);
    }
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// Exposition parsing.
// ---------------------------------------------------------------------------

std::string ExpositionSeries::Label(const std::string& key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

namespace {

bool PromNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

bool ValidPromName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (!PromNameChar(name[i], i == 0)) return false;
  }
  return true;
}

Status LineError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("exposition line " + std::to_string(line_no) +
                                 ": " + what);
}

/// Parses `name{k="v",...} value` into `series`. `line` has no trailing \n.
Status ParseSampleLine(const std::string& line, size_t line_no,
                       ExpositionSeries* series) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ' &&
         line[i] != '\t') {
    ++i;
  }
  series->name = line.substr(0, i);
  if (!ValidPromName(series->name)) {
    return LineError(line_no, "invalid metric name '" + series->name + "'");
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      size_t eq = line.find('=', i);
      if (eq == std::string::npos) {
        return LineError(line_no, "label without '='");
      }
      const std::string label_name = line.substr(i, eq - i);
      if (!ValidPromName(label_name) ||
          label_name.find(':') != std::string::npos) {
        return LineError(line_no, "invalid label name '" + label_name + "'");
      }
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') {
        return LineError(line_no, "label value must be quoted");
      }
      ++i;
      std::string value;
      bool closed = false;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '\\') {
          if (i + 1 >= line.size()) {
            return LineError(line_no, "dangling escape in label value");
          }
          const char next = line[i + 1];
          if (next == '\\') {
            value += '\\';
          } else if (next == '"') {
            value += '"';
          } else if (next == 'n') {
            value += '\n';
          } else {
            return LineError(line_no, "unknown escape in label value");
          }
          i += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++i;
          break;
        }
        value += c;
        ++i;
      }
      if (!closed) return LineError(line_no, "unterminated label value");
      series->labels.emplace_back(label_name, value);
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      return LineError(line_no, "unterminated label set");
    }
    ++i;
  }
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size()) return LineError(line_no, "missing sample value");
  const std::string value_text = line.substr(i);
  // Value (and optional timestamp, which we ignore): first token.
  std::istringstream token(value_text);
  std::string value_word;
  token >> value_word;
  if (value_word == "+Inf" || value_word == "Inf") {
    series->value = std::numeric_limits<double>::infinity();
  } else if (value_word == "-Inf") {
    series->value = -std::numeric_limits<double>::infinity();
  } else if (value_word == "NaN") {
    series->value = std::nan("");
  } else {
    char* end = nullptr;
    series->value = std::strtod(value_word.c_str(), &end);
    if (end == value_word.c_str() || *end != '\0') {
      return LineError(line_no, "unparseable value '" + value_word + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ExpositionDoc> ParseExposition(const std::string& text) {
  ExpositionDoc doc;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      if (pos == text.size()) break;
      end = text.size();
    }
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <family> <type>" is structured; any other comment is free
      // text per the format.
      std::istringstream comment(line);
      std::string hash, keyword, family, type;
      comment >> hash >> keyword;
      if (keyword == "TYPE") {
        if (!(comment >> family >> type) || !ValidPromName(family)) {
          return LineError(line_no, "malformed TYPE line");
        }
        auto [it, inserted] = doc.types.emplace(family, type);
        if (!inserted && it->second != type) {
          return LineError(line_no, "family '" + family +
                                        "' declared as both '" + it->second +
                                        "' and '" + type + "'");
        }
      }
      continue;
    }
    ExpositionSeries series;
    if (Status s = ParseSampleLine(line, line_no, &series); !s.ok()) {
      return s;
    }
    doc.series.push_back(std::move(series));
  }
  return doc;
}

Status ValidateExposition(const std::string& text) {
  SF_ASSIGN_OR_RETURN(const ExpositionDoc doc, ParseExposition(text));
  if (doc.series.empty()) {
    return Status::InvalidArgument("exposition payload has no samples");
  }
  std::set<std::string> seen;
  for (const ExpositionSeries& series : doc.series) {
    std::string key = series.name;
    std::vector<std::pair<std::string, std::string>> labels = series.labels;
    std::sort(labels.begin(), labels.end());
    for (const auto& [k, v] : labels) key += "|" + k + "=" + v;
    if (!seen.insert(key).second) {
      return Status::InvalidArgument("duplicate series: " + key);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HTTP client.
// ---------------------------------------------------------------------------

namespace {

/// Waits for readability/writability with a deadline. Returns false on
/// timeout or poll error.
bool PollFd(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  const int rc = ::poll(&p, 1, timeout_ms);
  return rc > 0 && (p.revents & (events | POLLHUP)) != 0;
}

}  // namespace

Result<std::string> HttpGet(const std::string& target, const std::string& path,
                            int timeout_ms) {
  std::string hostport = target;
  constexpr const char* kScheme = "http://";
  if (hostport.rfind(kScheme, 0) == 0) {
    hostport = hostport.substr(std::strlen(kScheme));
    // Anything after the authority is ignored; `path` names the route.
    const size_t slash = hostport.find('/');
    if (slash != std::string::npos) hostport = hostport.substr(0, slash);
  }
  const size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("introspection target must be host:port, got '" +
                                   target + "'");
  }
  const std::string host = hostport.substr(0, colon);
  const int port = std::atoi(hostport.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad introspection port in '" + target + "'");
  }

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.empty() ? "127.0.0.1" : host.c_str(),
                  &addr.sin_addr) != 1) {
    return Status::InvalidArgument("introspection host must be an IPv4 literal, got '" +
                                   host + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect to " + hostport + " failed");
    }
    if (!PollFd(fd, POLLOUT, timeout_ms)) {
      return Status::DeadlineExceeded("connect to " + hostport + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Status::Unavailable("connect to " + hostport + " failed: " +
                                 std::strerror(err));
    }
  }

  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + hostport +
      "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    if (!PollFd(fd, POLLOUT, timeout_ms)) {
      return Status::DeadlineExceeded("request write timed out");
    }
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::Unavailable("request write failed");
    }
    sent += static_cast<size_t>(n);
  }

  std::string response;
  char buffer[4096];
  while (true) {
    if (!PollFd(fd, POLLIN, timeout_ms)) {
      return Status::DeadlineExceeded("response read timed out");
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::Unavailable("response read failed");
    }
    if (n == 0) break;  // server closed: HTTP/1.0 end of body
    response.append(buffer, static_cast<size_t>(n));
  }

  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Internal("malformed HTTP response (no header terminator)");
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    return Status::Internal("HTTP error: " + status_line);
  }
  return response.substr(header_end + 4);
}

}  // namespace obs
}  // namespace silofuse
