#ifndef SILOFUSE_OBS_EXPOSE_H_
#define SILOFUSE_OBS_EXPOSE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace silofuse {
namespace obs {

// ---------------------------------------------------------------------------
// Metric-name mapping: the registry's dotted namespace -> Prometheus grammar.
// ---------------------------------------------------------------------------

/// One registry name translated for exposition. Deployment-scoped names
/// ("serve.deploy.<name>.sample_ms", "audit.<name>.audits") have their
/// deployment segment lifted out of the name and into a label, so every
/// deployment's copy of a metric lands in the same Prometheus family:
///   serve.deploy.demo.sample_ms -> serve_sample_ms{deployment="demo"}
///   audit.demo.bad_audits       -> audit_bad_audits{deployment="demo"}
/// Everything else maps dot -> underscore with no labels.
struct MappedMetricName {
  std::string name;        // Prometheus family name (no suffix)
  std::string deployment;  // lifted label value; empty = unlabeled
};
MappedMetricName MapMetricName(const std::string& dotted);

/// Renders a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` line per family, counters suffixed
/// `_total`, histograms expanded to cumulative `_bucket{le="..."}` series
/// plus `_sum`/`_count`, and deployment labels lifted per MapMetricName.
/// Families are emitted in deterministic (sorted) order so consecutive
/// scrapes of a quiesced process are byte-identical.
std::string PrometheusExposition(const MetricsSnapshot& snapshot);

struct IntrospectionOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after Start).
  int port = 0;
  /// Loopback by default: the introspection plane is an operator tool, not
  /// a public API.
  std::string bind_address = "127.0.0.1";
  /// Per-connection read/write budget; a stuck client is dropped, never
  /// waited on.
  int io_timeout_ms = 2000;
  /// Requests larger than this are answered 400 and dropped (bounded
  /// per-request work; GET lines for the four routes fit in one packet).
  int max_request_bytes = 4096;
};

/// Embedded HTTP/1.0 introspection server: one acceptor thread, one
/// connection handled at a time, bounded per-request work. Routes:
///
///   /healthz  -> "ok\n"                      (liveness probe)
///   /varz     -> MetricsSnapshot::ToJson()   (same schema as SILOFUSE_METRICS)
///   /metrics  -> PrometheusExposition(...)   (text format 0.0.4)
///   /statusz  -> the registered statusz handler (plain text), 404 when unset
///
/// The server only ever READS process state (registry snapshots, debug
/// snapshots); serving bytes and phase accounting are untouched by scrapes.
/// Thread-safe; Start/Stop may be called once each from any thread.
class IntrospectionServer {
 public:
  explicit IntrospectionServer(IntrospectionOptions options = {});
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Binds, listens, and spawns the acceptor thread. kUnavailable when the
  /// port cannot be bound.
  Status Start();

  /// Stops accepting, joins the acceptor. Idempotent; also run by the
  /// destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the ephemeral pick when options.port was 0); -1 before
  /// a successful Start.
  int port() const { return port_; }

  /// Installs the /statusz renderer (e.g. SynthesisServer's rendered
  /// DebugSnapshot). Called from the acceptor thread on each request; must
  /// be thread-safe and reasonably fast.
  void SetStatuszHandler(std::function<std::string()> handler);

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Routes one request path to (status line, content type, body).
  void Respond(int fd, const std::string& path);

  IntrospectionOptions options_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread acceptor_;
  std::mutex handler_mu_;
  std::function<std::string()> statusz_;  // guarded by handler_mu_
};

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_EXPOSE_H_
