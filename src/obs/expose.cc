#include "obs/expose.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace silofuse {
namespace obs {

namespace {

/// Sanitizes one dotted segment for inclusion in a Prometheus name: every
/// character outside [a-zA-Z0-9_] becomes '_'.
void AppendSanitized(const std::string& segment, std::string* out) {
  for (char c : segment) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out->push_back(ok ? c : '_');
  }
}

/// Prometheus exposition shares the snapshot writer's number policy: finite
/// shortest-ish decimal, infinities spelled the exposition way.
std::string ExpoDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One exposition family: every series sharing a base name must sit under a
/// single `# TYPE` line.
struct Family {
  std::string type;
  std::vector<std::string> lines;
};

std::string LabelClause(const std::string& deployment,
                        const std::string& extra = "") {
  if (deployment.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!deployment.empty()) {
    out += "deployment=\"" + EscapeLabelValue(deployment) + "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

}  // namespace

MappedMetricName MapMetricName(const std::string& dotted) {
  MappedMetricName mapped;
  std::vector<std::string> segments;
  std::string current;
  for (char c : dotted) {
    if (c == '.') {
      segments.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  segments.push_back(current);

  // Deployment-position lifting (the documented grammar positions only):
  //   serve.deploy.<name>.<rest...>  and  audit.<name>.<rest...>
  size_t skip_begin = segments.size();  // [skip_begin, skip_end) is lifted
  size_t skip_end = segments.size();
  if (segments.size() >= 4 && segments[0] == "serve" &&
      segments[1] == "deploy") {
    // Both the "deploy" literal and the deployment name leave the metric
    // name, so serve.deploy.<d>.sample_ms joins the serve.sample_ms family.
    mapped.deployment = segments[2];
    skip_begin = 1;
    skip_end = 3;
  } else if (segments.size() >= 3 && segments[0] == "audit") {
    mapped.deployment = segments[1];
    skip_begin = 1;
    skip_end = 2;
  }

  for (size_t i = 0; i < segments.size(); ++i) {
    if (i >= skip_begin && i < skip_end) continue;  // lifted into the label
    if (!mapped.name.empty()) mapped.name += '_';
    AppendSanitized(segments[i], &mapped.name);
  }
  if (mapped.name.empty() || (mapped.name[0] >= '0' && mapped.name[0] <= '9')) {
    mapped.name.insert(mapped.name.begin(), '_');
  }
  return mapped;
}

std::string PrometheusExposition(const MetricsSnapshot& snapshot) {
  // Group by family first: serve.sample_ms and serve.deploy.<d>.sample_ms
  // land in the same family and must share one TYPE line. std::map keeps
  // family order (and ToJson's name order within a family) deterministic.
  std::map<std::string, Family> families;

  for (const auto& [name, value] : snapshot.counters) {
    const MappedMetricName mapped = MapMetricName(name);
    // The Prometheus counter convention: families end in _total.
    const std::string family = mapped.name + "_total";
    Family& f = families[family];
    if (f.type.empty()) f.type = "counter";
    f.lines.push_back(family + LabelClause(mapped.deployment) + " " +
                      std::to_string(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const MappedMetricName mapped = MapMetricName(name);
    Family& f = families[mapped.name];
    if (f.type.empty()) f.type = "gauge";
    f.lines.push_back(mapped.name + LabelClause(mapped.deployment) + " " +
                      ExpoDouble(value));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const MappedMetricName mapped = MapMetricName(name);
    Family& f = families[mapped.name];
    if (f.type.empty()) f.type = "histogram";
    // Exposition buckets are CUMULATIVE; the snapshot's are per-bucket.
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string le =
          i < h.bounds.size() ? ExpoDouble(h.bounds[i]) : "+Inf";
      f.lines.push_back(mapped.name + "_bucket" +
                        LabelClause(mapped.deployment,
                                    "le=\"" + le + "\"") +
                        " " + std::to_string(cumulative));
    }
    f.lines.push_back(mapped.name + "_sum" + LabelClause(mapped.deployment) +
                      " " + ExpoDouble(h.sum));
    f.lines.push_back(mapped.name + "_count" + LabelClause(mapped.deployment) +
                      " " + std::to_string(h.count));
  }

  std::ostringstream out;
  for (const auto& [family, f] : families) {
    out << "# TYPE " << family << " " << f.type << "\n";
    for (const std::string& line : f.lines) out << line << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// HTTP server.
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

struct IntrospectMetrics {
  Counter* requests;
  Counter* errors;
};

const IntrospectMetrics& Metrics() {
  static const IntrospectMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    IntrospectMetrics m;
    m.requests = registry.GetCounter("introspect.requests");
    m.errors = registry.GetCounter("introspect.errors");
    return m;
  }();
  return metrics;
}

void SendAll(int fd, const std::string& data, int timeout_ms) {
  size_t sent = 0;
  while (sent < data.size()) {
    if (!PollFd(fd, POLLOUT, timeout_ms)) return;  // stuck client: drop
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(const std::string& status,
                         const std::string& content_type,
                         const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << "\r\nContent-Type: " << content_type
      << "\r\nContent-Length: " << body.size()
      << "\r\nConnection: close\r\n\r\n"
      << body;
  return out.str();
}

}  // namespace

IntrospectionServer::IntrospectionServer(IntrospectionOptions options)
    : options_(std::move(options)) {
  if (options_.io_timeout_ms < 1) options_.io_timeout_ms = 1;
  if (options_.max_request_bytes < 64) options_.max_request_bytes = 64;
}

IntrospectionServer::~IntrospectionServer() { Stop(); }

void IntrospectionServer::SetStatuszHandler(
    std::function<std::string()> handler) {
  std::lock_guard<std::mutex> lock(handler_mu_);
  statusz_ = std::move(handler);
}

Status IntrospectionServer::Start() {
  if (running()) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad introspection bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("cannot bind introspection port " +
                               std::to_string(options_.port) + ": " + reason);
  }
  if (::listen(listen_fd_, /*backlog=*/16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("listen() failed");
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  SF_LOG(Info) << "introspection server listening on "
               << options_.bind_address << ":" << port_;
  return Status::OK();
}

void IntrospectionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // The acceptor polls with a timeout and re-checks running_, so closing
  // here only races benignly with an in-flight accept.
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void IntrospectionServer::AcceptLoop() {
  while (running()) {
    if (!PollFd(listen_fd_, POLLIN, /*timeout_ms=*/50)) continue;
    struct sockaddr_in peer;
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<struct sockaddr*>(&peer), &peer_len);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void IntrospectionServer::HandleConnection(int fd) {
  Metrics().requests->Increment();
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  std::string request;
  while (request.find("\r\n") == std::string::npos &&
         static_cast<int>(request.size()) < options_.max_request_bytes) {
    if (!PollFd(fd, POLLIN, options_.io_timeout_ms)) break;
    char buffer[1024];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    request.append(buffer, static_cast<size_t>(n));
  }

  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    Metrics().errors->Increment();
    SendAll(fd, HttpResponse("400 Bad Request", "text/plain", "bad request\n"),
            options_.io_timeout_ms);
    return;
  }
  std::istringstream line(request.substr(0, line_end));
  std::string method, path;
  line >> method >> path;
  if (method != "GET") {
    Metrics().errors->Increment();
    SendAll(fd,
            HttpResponse("405 Method Not Allowed", "text/plain",
                         "only GET is supported\n"),
            options_.io_timeout_ms);
    return;
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path = path.substr(0, query);
  Respond(fd, path);
}

void IntrospectionServer::Respond(int fd, const std::string& path) {
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  if (path == "/healthz" || path == "/") {
    body = "ok\n";
  } else if (path == "/varz") {
    body = MetricsRegistry::Global().Snapshot().ToJson();
    content_type = "application/json";
  } else if (path == "/metrics") {
    body = PrometheusExposition(MetricsRegistry::Global().Snapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/statusz") {
    std::function<std::string()> handler;
    {
      std::lock_guard<std::mutex> lock(handler_mu_);
      handler = statusz_;
    }
    if (handler == nullptr) {
      Metrics().errors->Increment();
      SendAll(fd,
              HttpResponse("404 Not Found", "text/plain",
                           "no statusz handler registered\n"),
              options_.io_timeout_ms);
      return;
    }
    body = handler();
  } else {
    Metrics().errors->Increment();
    SendAll(fd,
            HttpResponse("404 Not Found", "text/plain",
                         "routes: /healthz /varz /metrics /statusz\n"),
            options_.io_timeout_ms);
    return;
  }
  SendAll(fd, HttpResponse("200 OK", content_type, body),
          options_.io_timeout_ms);
}

}  // namespace obs
}  // namespace silofuse