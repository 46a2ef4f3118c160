#include "distributed/fault.h"

#include <cstring>
#include <limits>

#include "obs/metrics.h"

namespace silofuse {

namespace {

// "SFWM": SiloFuse wire matrix.
constexpr uint32_t kFrameMagic = 0x5346574Du;
constexpr size_t kFrameHeaderBytes = 24;
constexpr size_t kFrameChecksumBytes = 8;
constexpr uint64_t kFnvPrime = 1099511628211ull;

template <typename T>
void PutLe(std::vector<uint8_t>* out, size_t offset, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    (*out)[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

template <typename T>
T GetLe(const std::vector<uint8_t>& in, size_t offset) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(in[offset + i]) << (8 * i);
  }
  return value;
}

obs::Counter* DroppedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("channel.dropped");
  return c;
}

obs::Counter* DuplicateCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("channel.duplicates");
  return c;
}

obs::Counter* CorruptCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("channel.corrupt_detected");
  return c;
}

obs::Counter* TimeoutCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("channel.timeouts");
  return c;
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t n, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::vector<uint8_t> EncodeMatrixFrame(const Matrix& m, uint64_t seq,
                                       const obs::TraceContext& ctx) {
  const size_t payload = m.size() * sizeof(float);
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload + kFrameChecksumBytes);
  PutLe<uint32_t>(&frame, 0, kFrameMagic);
  PutLe<uint32_t>(&frame, 4, static_cast<uint32_t>(m.rows()));
  PutLe<uint32_t>(&frame, 8, static_cast<uint32_t>(m.cols()));
  PutLe<uint32_t>(&frame, 12, static_cast<uint32_t>(seq));
  PutLe<uint64_t>(&frame, 16, ctx.Pack());
  if (payload > 0) {
    std::memcpy(frame.data() + kFrameHeaderBytes, m.data(), payload);
  }
  const uint64_t checksum =
      Fnv1a64(frame.data(), kFrameHeaderBytes + payload);
  PutLe<uint64_t>(&frame, kFrameHeaderBytes + payload, checksum);
  return frame;
}

Result<Matrix> DecodeMatrixFrame(const std::vector<uint8_t>& frame,
                                 uint64_t* seq_out,
                                 obs::TraceContext* ctx_out) {
  if (frame.size() < kFrameHeaderBytes + kFrameChecksumBytes) {
    return Status::IOError("matrix frame shorter than header");
  }
  if (GetLe<uint32_t>(frame, 0) != kFrameMagic) {
    return Status::IOError("bad matrix frame magic");
  }
  const int64_t rows = GetLe<uint32_t>(frame, 4);
  const int64_t cols = GetLe<uint32_t>(frame, 8);
  const uint64_t seq = GetLe<uint32_t>(frame, 12);
  const int64_t payload = static_cast<int64_t>(
      frame.size() - kFrameHeaderBytes - kFrameChecksumBytes);
  constexpr int64_t kFloatBytes = sizeof(float);
  // Matrix dimensions are ints. Rejecting larger ones first also bounds
  // rows * cols below 2^62, so the shape check cannot overflow.
  if (rows > std::numeric_limits<int>::max() ||
      cols > std::numeric_limits<int>::max() || payload % kFloatBytes != 0 ||
      rows * cols != payload / kFloatBytes) {
    return Status::IOError("matrix frame size does not match its shape");
  }
  const uint64_t expected =
      Fnv1a64(frame.data(), kFrameHeaderBytes + static_cast<size_t>(payload));
  if (GetLe<uint64_t>(frame, kFrameHeaderBytes + payload) != expected) {
    return Status::IOError("matrix frame checksum mismatch");
  }
  Matrix m(static_cast<int>(rows), static_cast<int>(cols));
  if (payload > 0) {
    std::memcpy(m.data(), frame.data() + kFrameHeaderBytes,
                static_cast<size_t>(payload));
  }
  if (seq_out != nullptr) *seq_out = seq;
  if (ctx_out != nullptr) {
    *ctx_out = obs::TraceContext::Unpack(GetLe<uint64_t>(frame, 16));
  }
  return m;
}

void FaultPlan::SetTagFaults(const std::string& tag, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  by_tag_[tag] = spec;
}

void FaultPlan::SetDefaultFaults(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  default_spec_ = spec;
}

void FaultPlan::DropSiloAtRound(const std::string& party, int64_t round) {
  std::lock_guard<std::mutex> lock(mu_);
  dropout_round_[party] = round;
}

bool FaultPlan::SiloDown(const std::string& party) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dropout_round_.find(party);
  return it != dropout_round_.end() && round_ >= it->second;
}

void FaultPlan::AdvanceRound() {
  std::lock_guard<std::mutex> lock(mu_);
  ++round_;
}

int64_t FaultPlan::current_round() const {
  std::lock_guard<std::mutex> lock(mu_);
  return round_;
}

FaultDecision FaultPlan::Decide(const std::string& from, const std::string& to,
                                const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultDecision d;
  {
    auto down = [this](const std::string& party) {
      auto it = dropout_round_.find(party);
      return it != dropout_round_.end() && round_ >= it->second;
    };
    if (down(from) || down(to)) {
      d.action = FaultAction::kSiloDown;
      return d;
    }
  }
  auto it = by_tag_.find(tag);
  FaultSpec& spec = it != by_tag_.end() ? it->second : default_spec_;

  // Scripted faults first (deterministic, no Rng consumed).
  if (spec.drop_first > 0) {
    --spec.drop_first;
    d.action = FaultAction::kDrop;
    return d;
  }
  if (spec.corrupt_first > 0) {
    --spec.corrupt_first;
    d.action = FaultAction::kCorrupt;
    d.corrupt_seed = rng_.engine()();
    return d;
  }
  if (spec.duplicate_first > 0) {
    --spec.duplicate_first;
    d.action = FaultAction::kDuplicate;
    return d;
  }
  if (spec.delay_first > 0) {
    --spec.delay_first;
    d.action = FaultAction::kDelay;
    d.delay_ms = spec.delay_ms;
    return d;
  }

  // Probabilistic faults, fixed evaluation order for a stable trace.
  if (spec.drop_prob > 0.0 && rng_.Bernoulli(spec.drop_prob)) {
    d.action = FaultAction::kDrop;
    return d;
  }
  if (spec.corrupt_prob > 0.0 && rng_.Bernoulli(spec.corrupt_prob)) {
    d.action = FaultAction::kCorrupt;
    d.corrupt_seed = rng_.engine()();
    return d;
  }
  if (spec.duplicate_prob > 0.0 && rng_.Bernoulli(spec.duplicate_prob)) {
    d.action = FaultAction::kDuplicate;
    return d;
  }
  if (spec.delay_prob > 0.0 && rng_.Bernoulli(spec.delay_prob)) {
    d.action = FaultAction::kDelay;
    d.delay_ms = spec.delay_ms;
    return d;
  }
  return d;
}

Status FaultyChannel::TryDeliver(const std::string& from, const std::string& to,
                                 const std::vector<uint8_t>& frame,
                                 const std::string& tag,
                                 std::vector<uint8_t>* corrupted,
                                 int64_t* delay_ms) {
  *delay_ms = 0;
  const int64_t bytes = static_cast<int64_t>(frame.size());
  const FaultDecision d =
      plan_ != nullptr ? plan_->Decide(from, to, tag) : FaultDecision{};
  switch (d.action) {
    case FaultAction::kSiloDown:
      // The party vanished: nothing reaches the wire.
      return Status::Unavailable("silo unreachable on '" + tag + "' (" + from +
                                 " -> " + to + ")");
    case FaultAction::kDrop:
      inner_->Send(bytes, tag);
      DroppedCounter()->Increment();
      return Status::Unavailable("message dropped on '" + tag + "' (" + from +
                                 " -> " + to + ")");
    case FaultAction::kCorrupt: {
      inner_->Send(bytes, tag);
      *corrupted = frame;
      const size_t pos = static_cast<size_t>(d.corrupt_seed % frame.size());
      (*corrupted)[pos] ^= 0xFF;  // never a no-op flip
      return Status::OK();
    }
    case FaultAction::kDuplicate:
      // Both copies consume bandwidth; the receiver keeps the first.
      inner_->Send(bytes, tag);
      inner_->Send(bytes, tag);
      inner_->RecordRedelivered(bytes);
      DuplicateCounter()->Increment();
      return Status::OK();
    case FaultAction::kDelay:
      inner_->Send(bytes, tag);
      *delay_ms = d.delay_ms;
      return Status::OK();
    case FaultAction::kDeliver:
      inner_->Send(bytes, tag);
      return Status::OK();
  }
  return Status::Internal("unhandled fault action");
}

bool FaultyChannel::PartyDown(const std::string& party) const {
  return plan_ != nullptr && plan_->SiloDown(party);
}

void FaultyChannel::BeginRound() {
  if (plan_ != nullptr) plan_->AdvanceRound();
  inner_->BeginRound();
}

Result<Matrix> ReliableTransfer::SendMatrix(const std::string& from,
                                            const std::string& to,
                                            const Matrix& payload,
                                            const std::string& tag) {
  const uint64_t seq = next_seq_++;
  // Stamp the sender's ambient trace context (plus the transfer tag) into
  // the frame header: the receive span below unpacks it from the decoded
  // bytes, so the exported trace proves the context crossed the wire.
  obs::TraceContext ctx = obs::CurrentTraceContext();
  ctx.tag = obs::InternTraceString(tag);
  const std::vector<uint8_t> frame = EncodeMatrixFrame(payload, seq, ctx);
  const bool tracing = obs::TraceEnabled();
  const char* from_party = tracing ? obs::InternTraceString(from) : nullptr;
  const char* to_party = tracing ? obs::InternTraceString(to) : nullptr;
  Matrix received;
  auto attempt = [&](int k) -> Status {
    // One flow id per delivery attempt: a dropped attempt leaves its flow
    // start dangling in the trace (an arrow to nowhere), a delivered one is
    // closed by the receive span's flow finish.
    const uint64_t flow_id = tracing ? obs::NextFlowId() : 0;
    obs::ContextSpan attempt_span("transfer.attempt", from_party, ctx);
    obs::RecordTransferFlow("transfer", flow_id, /*start=*/true, from_party);
    if (channel_->PartyDown(from) || channel_->PartyDown(to)) {
      // Permanent for this round: RunWithRetry stops immediately on
      // kFailedPrecondition; mapped back to kUnavailable below.
      return Status::FailedPrecondition("silo down: cannot deliver '" + tag +
                                        "' from " + from + " to " + to);
    }
    std::vector<uint8_t> corrupted;
    int64_t delay_ms = 0;
    SF_RETURN_NOT_OK(
        channel_->TryDeliver(from, to, frame, tag, &corrupted, &delay_ms));
    if (delay_ms > 0) {
      clock_->SleepFor(delay_ms * 1'000'000);
      if (policy_.attempt_timeout_ms > 0 &&
          delay_ms > policy_.attempt_timeout_ms) {
        TimeoutCounter()->Increment();
        return Status::DeadlineExceeded(
            "attempt " + std::to_string(k) + " on '" + tag + "' took " +
            std::to_string(delay_ms) + "ms (budget " +
            std::to_string(policy_.attempt_timeout_ms) + "ms)");
      }
    }
    uint64_t got_seq = 0;
    obs::TraceContext wire_ctx;
    Result<Matrix> decoded = DecodeMatrixFrame(
        corrupted.empty() ? frame : corrupted, &got_seq, &wire_ctx);
    if (!decoded.ok()) {
      CorruptCounter()->Increment();
      return Status::Unavailable("integrity check failed on '" + tag +
                                 "': " + decoded.status().message());
    }
    if (got_seq != (seq & 0xFFFFFFFFull)) {
      return Status::Unavailable("stale frame on '" + tag + "' (seq " +
                                 std::to_string(got_seq) + " != " +
                                 std::to_string(seq) + ")");
    }
    {
      // Receive span carries the context decoded FROM THE FRAME, not the
      // sender's local copy — end-to-end propagation, not bookkeeping.
      obs::ContextSpan recv_span("transfer.recv", to_party, wire_ctx);
      obs::RecordTransferFlow("transfer", flow_id, /*start=*/false, to_party);
    }
    received = std::move(decoded).Value();
    return Status::OK();
  };
  auto on_retry = [&](int next_attempt, const Status& /*last*/) {
    ++retries_;
    channel_->inner()->RecordRetry(static_cast<int64_t>(frame.size()));
    if (tracing) {
      // The backoff sleep happens inside RunWithRetry right after this
      // hook; the schedule is deterministic, so record the span with its
      // scheduled duration (a lower bound under a real clock).
      const int64_t start_ns = obs::internal_trace::NowNs();
      const int64_t backoff_ns =
          BackoffDelayMs(policy_, next_attempt - 2) * 1'000'000;
      obs::internal_trace::RecordSpanEvent("transfer.backoff", start_ns,
                                           start_ns + backoff_ns, ctx.Pack(),
                                           from_party);
    }
  };
  Status s = RunWithRetry(policy_, clock_, attempt, on_retry);
  if (s.ok()) return received;
  if (s.code() == StatusCode::kFailedPrecondition) {
    return Status::Unavailable(s.message());
  }
  return Status::Unavailable("transfer '" + tag + "' from " + from + " to " +
                             to + " failed after " +
                             std::to_string(policy_.max_attempts) +
                             " attempts: " + s.ToString());
}

}  // namespace silofuse
