#ifndef SILOFUSE_DISTRIBUTED_FAULT_H_
#define SILOFUSE_DISTRIBUTED_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "distributed/channel.h"
#include "obs/trace_context.h"
#include "tensor/matrix.h"

namespace silofuse {

/// ---- Checksummed wire framing ---------------------------------------------
///
/// A matrix frame is: 24-byte header (magic, rows, cols, 32-bit sequence
/// number, 64-bit packed obs::TraceContext) + row-major float32 payload +
/// 8-byte FNV-1a checksum over everything before it. The context rides in
/// what used to be the sequence number's high half plus the reserved word,
/// so the total stays exactly MatrixWireBytes(m) and the byte-metering
/// numbers of the Fig. 10 experiments are unchanged by context propagation.

/// 64-bit FNV-1a over `n` bytes, continuing from `seed` (pass kFnvOffset to
/// start a fresh hash). Single-byte flips always change the digest: the
/// per-byte step xor-then-multiply-by-odd-prime is a bijection on the state.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
uint64_t Fnv1a64(const uint8_t* data, size_t n, uint64_t seed = kFnvOffset);

/// Serializes `m` into a checksummed frame carrying `seq` (stored as its low
/// 32 bits) and the sender's trace context.
std::vector<uint8_t> EncodeMatrixFrame(const Matrix& m, uint64_t seq,
                                       const obs::TraceContext& ctx = {});

/// Parses and integrity-checks a frame. Returns kIOError (message contains
/// "checksum" for payload corruption) on any malformed input; `seq_out`,
/// when given, receives the frame's 32-bit sequence number; `ctx_out` the
/// trace context the sender stamped into the header.
Result<Matrix> DecodeMatrixFrame(const std::vector<uint8_t>& frame,
                                 uint64_t* seq_out = nullptr,
                                 obs::TraceContext* ctx_out = nullptr);

/// ---- Fault plan ------------------------------------------------------------

/// Faults injected on sends matching one tag (or the plan default).
/// Scripted `*_first` counters fire deterministically on the first N
/// matching delivery attempts and are consumed before any probabilistic
/// draw; probabilities are evaluated per attempt from the plan's seeded Rng
/// in a fixed order (drop, corrupt, duplicate, delay), so a given seed
/// always yields the same fault trace.
struct FaultSpec {
  double drop_prob = 0.0;       ///< Message vanishes on the wire.
  double corrupt_prob = 0.0;    ///< One byte of the frame is flipped.
  double duplicate_prob = 0.0;  ///< Frame is delivered twice.
  double delay_prob = 0.0;      ///< Delivery is delayed by delay_ms.
  int64_t delay_ms = 0;

  int drop_first = 0;       ///< Drop exactly the first N matching attempts.
  int corrupt_first = 0;    ///< Then corrupt the next N.
  int duplicate_first = 0;  ///< Then duplicate the next N.
  int delay_first = 0;      ///< Then delay the next N.
};

enum class FaultAction {
  kDeliver = 0,
  kDrop,
  kCorrupt,
  kDelay,
  kDuplicate,
  kSiloDown,
};

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  int64_t delay_ms = 0;
  /// For kCorrupt: deterministic source of the flipped byte position
  /// (position = corrupt_seed % frame size).
  uint64_t corrupt_seed = 0;
};

/// Seeded, thread-safe description of everything that goes wrong on the
/// wire: per-tag drop/corrupt/duplicate/delay faults plus scripted silo
/// dropout ("party P vanishes at communication round N"). One plan instance
/// describes one simulated network; Channel decorators consult it on every
/// delivery attempt.
///
/// Rounds are 1-based and advance on FaultyChannel::BeginRound; round 0 is
/// "before any round started". A silo scheduled to drop at round N rejects
/// every transfer from or to it once the current round is >= N.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 0x51105eedull) : rng_(seed) {}

  /// Faults for sends whose tag equals `tag`.
  void SetTagFaults(const std::string& tag, const FaultSpec& spec);
  /// Faults for sends with no tag-specific spec.
  void SetDefaultFaults(const FaultSpec& spec);

  /// Scripts `party` to vanish at communication round `round` (1-based).
  void DropSiloAtRound(const std::string& party, int64_t round);

  /// True when `party` is scripted down at the current round.
  bool SiloDown(const std::string& party) const;

  void AdvanceRound();
  int64_t current_round() const;

  /// Decides the fate of one delivery attempt. Consumes the plan Rng (and
  /// scripted counters), so call exactly once per attempt.
  FaultDecision Decide(const std::string& from, const std::string& to,
                       const std::string& tag);

 private:
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, FaultSpec> by_tag_;
  FaultSpec default_spec_;
  std::map<std::string, int64_t> dropout_round_;
  int64_t round_ = 0;
};

/// ---- Faulty channel decorator ---------------------------------------------

/// Decorates a byte-metering Channel with a FaultPlan: every delivery
/// attempt is metered on the inner channel (dropped, corrupted, and
/// duplicated frames consumed wire bandwidth too) and then subjected to the
/// plan's verdict. A null plan makes the decorator transparent: every
/// attempt is a plain delivery.
///
/// Global fault counters ("channel.dropped", "channel.duplicates") are
/// process-lifetime obs metrics owned by this layer; see Channel::Reset for
/// the alignment contract of the channel-fed counters.
class FaultyChannel {
 public:
  explicit FaultyChannel(Channel* inner, FaultPlan* plan = nullptr)
      : inner_(inner), plan_(plan) {}

  /// One delivery attempt of `frame`. On transport success returns OK and
  /// sets *delay_ms to injected latency the caller must account for. The
  /// receiver saw `frame` itself, except on a corrupting verdict: then
  /// *corrupted receives the damaged copy it saw (otherwise it is left
  /// untouched, so a clean delivery copies nothing). Drops and down silos
  /// return kUnavailable.
  Status TryDeliver(const std::string& from, const std::string& to,
                    const std::vector<uint8_t>& frame, const std::string& tag,
                    std::vector<uint8_t>* corrupted, int64_t* delay_ms);

  /// True when the plan has `party` scripted down right now (permanent for
  /// the round — retrying cannot help).
  bool PartyDown(const std::string& party) const;

  /// Advances the fault plan's round counter and the inner channel's round
  /// log together.
  void BeginRound();

  Channel* inner() { return inner_; }

 private:
  Channel* inner_;
  FaultPlan* plan_;
};

/// ---- Reliable transfer -----------------------------------------------------

/// Checksummed at-least-once matrix delivery over a FaultyChannel: bounded
/// retries with exponential backoff (RetryPolicy), per-attempt timeout
/// against injected latency, corruption detection via the frame checksum,
/// and duplicate suppression by sequence number. Surfaces Status errors
/// (kUnavailable / kDeadlineExceeded) instead of silent loss.
///
/// Every retry is recorded on the inner channel's RoundLog and the global
/// "channel.retries" / "channel.redelivered_bytes" counters; detected
/// corruption bumps "channel.corrupt_detected", timeouts "channel.timeouts".
///
/// Not thread-safe: one ReliableTransfer per sending thread.
class ReliableTransfer {
 public:
  explicit ReliableTransfer(FaultyChannel* channel, RetryPolicy policy = {},
                            Clock* clock = nullptr)
      : channel_(channel), policy_(policy),
        clock_(clock != nullptr ? clock : SystemClock::Default()) {}

  /// Delivers `payload` from `from` to `to`, retrying per the policy.
  /// Returns the matrix as decoded by the receiver — bit-identical to
  /// `payload` whenever delivery succeeds, which is what makes fault-injected
  /// runs byte-identical to fault-free ones.
  Result<Matrix> SendMatrix(const std::string& from, const std::string& to,
                            const Matrix& payload, const std::string& tag);

  /// Retries performed by this transfer object (sum over all sends).
  int64_t retries() const { return retries_; }

 private:
  FaultyChannel* channel_;
  RetryPolicy policy_;
  Clock* clock_;
  uint64_t next_seq_ = 0;
  int64_t retries_ = 0;
};

/// Bundle threaded through SiloFuse / E2EDistr options: a borrowed fault
/// plan (null = no faults: the same transfers run over a transparent
/// FaultyChannel), the retry contract, and the clock backoff sleeps run on
/// (null = real time; tests pass a VirtualClock).
struct FaultInjection {
  FaultPlan* plan = nullptr;
  RetryPolicy retry;
  Clock* clock = nullptr;
};

}  // namespace silofuse

#endif  // SILOFUSE_DISTRIBUTED_FAULT_H_
