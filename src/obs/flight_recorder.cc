#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {
namespace obs {

namespace {

/// One recorded event, all-atomic so a concurrent reader never races a
/// writer in the data-race sense: every field is a relaxed atomic and the
/// per-slot `seq` (even = stable, odd = mid-write; the stable value encodes
/// the ring generation) orders the fields with acquire/release. Sized to
/// one cache line so a Record() touches exactly one line of the ring.
struct alignas(64) Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> request_id{0};
  std::atomic<uint64_t> batch_id{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> end_ns{0};
  std::atomic<const char*> deployment{nullptr};
  std::atomic<uint32_t> phase_rows{0};  // phase:8 (high) | rows:24 (low)
};
static_assert(sizeof(Slot) == 64, "one event per cache line");

constexpr uint32_t kRowsMask = (uint32_t{1} << 24) - 1;

/// Stable sequence value for generation `gen` of a slot: even, unique per
/// wrap, never 0 (0 = never written).
uint64_t StableSeq(uint64_t gen) { return 2 * gen + 2; }

struct Ring {
  std::vector<Slot> slots{FlightRecorder::kRingSlots};
  std::atomic<uint64_t> head{0};  // next generation; single writer
  int tid = 0;
};

std::mutex g_rings_mu;

std::vector<std::shared_ptr<Ring>>* Rings() {
  // Leaky: dumps can run from atexit hooks after static destruction began.
  static auto* rings = new std::vector<std::shared_ptr<Ring>>();
  return rings;
}

Ring* LocalRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    auto* all = Rings();
    r->tid = static_cast<int>(all->size()) + 1;
    all->push_back(r);
    return r;
  }();
  return ring.get();
}

std::atomic<int64_t> g_total_recorded{0};

std::mutex g_dump_mu;
std::string g_dump_dir;                   // guarded by g_dump_mu
std::vector<std::string> g_recent_dumps;  // guarded by g_dump_mu
int g_dump_seq = 0;                       // guarded by g_dump_mu
constexpr size_t kMaxRecentDumps = 16;

// Trigger-epoch dedup state (all guarded by g_dump_mu): when armed, a
// trigger starts an epoch of g_trigger_window_ns during which further
// triggers are counted-and-skipped.
int64_t g_trigger_window_ns = 0;  // 0 = dedup disarmed
Clock* g_trigger_clock = nullptr;
bool g_in_trigger_epoch = false;
int64_t g_trigger_epoch_start_ns = 0;

}  // namespace

const char* FlightPhaseName(FlightPhase phase) {
  switch (phase) {
    case FlightPhase::kNone: return "none";
    case FlightPhase::kCacheLoad: return "serve.cache_load";
    case FlightPhase::kEnqueue: return "serve.enqueue";
    case FlightPhase::kQueue: return "serve.queue";
    case FlightPhase::kLinger: return "serve.linger";
    case FlightPhase::kSample: return "serve.sample";
    case FlightPhase::kDecode: return "serve.decode";
    case FlightPhase::kStream: return "serve.stream";
    case FlightPhase::kReject: return "serve.reject";
    case FlightPhase::kBreach: return "serve.slo_breach";
    case FlightPhase::kQualityBreach: return "serve.quality_breach";
    case FlightPhase::kHandoff: return "serve.handoff";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() {
  enabled_.store(EnvFlag("SILOFUSE_FLIGHT", true), std::memory_order_relaxed);
  if (const char* dir = std::getenv("SILOFUSE_FLIGHT_DIR");
      dir != nullptr && *dir != '\0') {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    g_dump_dir = dir;
  }
}

FlightRecorder& FlightRecorder::Global() {
  // Leaky for the same atexit reason as the rings.
  static auto* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(FlightPhase phase, uint64_t request_id,
                            uint64_t batch_id, const char* deployment,
                            int32_t rows, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) return;
  Ring* ring = LocalRing();
  const uint64_t gen = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[gen & (kRingSlots - 1)];
  // Odd seq marks the slot mid-write; readers skip it.
  slot.seq.store(2 * gen + 1, std::memory_order_release);
  slot.request_id.store(request_id, std::memory_order_relaxed);
  slot.batch_id.store(batch_id, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.end_ns.store(end_ns, std::memory_order_relaxed);
  slot.deployment.store(deployment, std::memory_order_relaxed);
  const uint32_t bounded_rows =
      rows < 0 ? 0 : std::min<uint32_t>(static_cast<uint32_t>(rows), kRowsMask);
  slot.phase_rows.store((static_cast<uint32_t>(phase) << 24) | bounded_rows,
                        std::memory_order_relaxed);
  slot.seq.store(StableSeq(gen), std::memory_order_release);
  ring->head.store(gen + 1, std::memory_order_release);
  g_total_recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    rings = *Rings();
  }
  std::vector<FlightEvent> events;
  for (const auto& ring : rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, kRingSlots);
    for (uint64_t gen = head - count; gen < head; ++gen) {
      const Slot& slot = ring->slots[gen & (kRingSlots - 1)];
      if (slot.seq.load(std::memory_order_acquire) != StableSeq(gen)) {
        continue;  // being overwritten by a newer generation mid-read
      }
      FlightEvent event;
      event.request_id = slot.request_id.load(std::memory_order_relaxed);
      event.batch_id = slot.batch_id.load(std::memory_order_relaxed);
      event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
      event.end_ns = slot.end_ns.load(std::memory_order_relaxed);
      event.deployment = slot.deployment.load(std::memory_order_relaxed);
      const uint32_t packed = slot.phase_rows.load(std::memory_order_relaxed);
      event.phase = static_cast<FlightPhase>(packed >> 24);
      event.rows = static_cast<int32_t>(packed & kRowsMask);
      event.tid = ring->tid;
      // Re-validate: if the writer lapped us mid-field-read the fields may
      // mix generations; the seq check makes that visible and we drop it.
      if (slot.seq.load(std::memory_order_acquire) != StableSeq(gen)) continue;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.end_ns < b.end_ns;
            });
  return events;
}

Status FlightRecorder::WriteJson(const std::string& path) const {
  const std::vector<FlightEvent> events = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open flight dump file: " + path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto separator = [&]() -> std::ostream& {
    out << (first ? "\n" : ",\n");
    first = false;
    return out;
  };
  separator() << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": \"silofuse-flight\"}}";
  for (const FlightEvent& e : events) {
    separator() << "  {\"name\": \"" << FlightPhaseName(e.phase)
                << "\", \"cat\": \"flight\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": "
                << e.tid << ", \"ts\": "
                << static_cast<double>(e.start_ns) / 1000.0 << ", \"dur\": "
                << static_cast<double>(e.end_ns - e.start_ns) / 1000.0
                << ", \"args\": {\"request_id\": " << e.request_id
                << ", \"batch_id\": " << e.batch_id << ", \"rows\": " << e.rows;
    if (e.deployment != nullptr) {
      out << ", \"deployment\": \"" << e.deployment << "\"";
    }
    out << "}}";
  }
  // Flow arrows: chain each request's phases in time order. The "s" point
  // sits just inside the end of the earlier slice and the "f" point at the
  // start of the later one, so the viewer binds both to the right slices
  // and draws the queue -> linger -> sample -> decode -> handoff -> stream
  // arrows.
  std::map<uint64_t, std::vector<const FlightEvent*>> by_request;
  for (const FlightEvent& e : events) {
    if (e.request_id != 0) by_request[e.request_id].push_back(&e);
  }
  for (const auto& [request_id, chain] : by_request) {
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      const FlightEvent& from = *chain[i];
      const FlightEvent& to = *chain[i + 1];
      // One flow id per hop: request id in the high bits, hop index low.
      const uint64_t flow_id = (request_id << 8) | (i & 0xFF);
      const int64_t s_ns = std::max(from.start_ns, from.end_ns - 1000);
      separator() << "  {\"name\": \"serve.request\", \"cat\": \"flight\", "
                     "\"ph\": \"s\", \"pid\": 1, \"tid\": "
                  << from.tid << ", \"ts\": "
                  << static_cast<double>(s_ns) / 1000.0
                  << ", \"id\": " << flow_id << "}";
      separator() << "  {\"name\": \"serve.request\", \"cat\": \"flight\", "
                     "\"ph\": \"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": "
                  << to.tid << ", \"ts\": "
                  << static_cast<double>(to.start_ns) / 1000.0
                  << ", \"id\": " << flow_id << "}";
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return Status::IOError("failed writing flight dump: " + path);
  return Status::OK();
}

void FlightRecorder::SetDumpDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_dump_dir = dir;
}

std::string FlightRecorder::dump_dir() const {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  return g_dump_dir;
}

Result<std::string> FlightRecorder::Dump(const std::string& reason) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    if (g_dump_dir.empty()) {
      return Status::FailedPrecondition(
          "flight recorder has no dump directory (SetDumpDir / "
          "SILOFUSE_FLIGHT_DIR)");
    }
    std::ostringstream name;
    name << g_dump_dir << "/flight_" << reason << "_" << ::getpid() << "_"
         << g_dump_seq++ << ".json";
    path = name.str();
  }
  SF_RETURN_NOT_OK(WriteJson(path));
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    g_recent_dumps.push_back(path);
    if (g_recent_dumps.size() > kMaxRecentDumps) {
      g_recent_dumps.erase(g_recent_dumps.begin());
    }
  }
  return path;
}

void FlightRecorder::SetTriggerDedup(int64_t window_ns, Clock* clock) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_trigger_window_ns = window_ns > 0 ? window_ns : 0;
  g_trigger_clock = clock;
  g_in_trigger_epoch = false;
}

void FlightRecorder::DumpOnTrigger(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    if (g_trigger_window_ns > 0) {
      Clock* clock =
          g_trigger_clock != nullptr ? g_trigger_clock : SystemClock::Default();
      const int64_t now_ns = clock->NowNs();
      if (g_in_trigger_epoch &&
          now_ns - g_trigger_epoch_start_ns < g_trigger_window_ns) {
        // Same incident: an SLO breach and a quality breach tripping in one
        // window would dump near-identical rings — keep the first, count
        // the rest.
        MetricsRegistry::Global()
            .GetCounter("flight.dump_skipped")
            ->Increment();
        return;
      }
      g_in_trigger_epoch = true;
      g_trigger_epoch_start_ns = now_ns;
    }
  }
  if (dump_dir().empty()) {
    // Still counted: a report can show how many dump-worthy incidents the
    // process saw even when nobody configured a place to put them.
    MetricsRegistry::Global().GetCounter("flight.dump_skipped")->Increment();
    return;
  }
  Result<std::string> dumped = Dump(reason);
  MetricsRegistry::Global()
      .GetCounter(dumped.ok() ? "flight.dumps" : "flight.dump_failures")
      ->Increment();
}

std::vector<std::string> FlightRecorder::RecentDumps() const {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  return g_recent_dumps;
}

int64_t FlightRecorder::TotalRecorded() const {
  return g_total_recorded.load(std::memory_order_relaxed);
}

void FlightRecorder::Clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    rings = *Rings();
  }
  for (const auto& ring : rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
    }
    // Keep head monotone (generations must not repeat after a Clear, or a
    // stale stable seq could validate a cleared slot).
    ring->head.store(head, std::memory_order_release);
  }
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_recent_dumps.clear();
  g_in_trigger_epoch = false;
}

}  // namespace obs
}  // namespace silofuse
