#ifndef SILOFUSE_DISTRIBUTED_CHANNEL_H_
#define SILOFUSE_DISTRIBUTED_CHANNEL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace silofuse {

class Clock;

namespace obs {
class Counter;
}  // namespace obs

/// Byte/message subtotal of one communication round, so the Fig. 10
/// pipeline can plot bytes-per-round instead of only cumulative totals.
struct ChannelRound {
  int64_t bytes = 0;
  int64_t messages = 0;
  /// Re-delivery attempts performed by the reliability layer in this round
  /// (0 on a fault-free wire).
  int64_t retries = 0;
  /// Bytes that crossed the wire more than once (retransmissions and
  /// duplicate deliveries) in this round.
  int64_t redelivered_bytes = 0;
  /// Wall time from this round's BeginRound to the next one (or to the
  /// stats read for the still-open last round).
  double wall_ms = 0.0;
};

/// Serialized size of a float32 matrix payload plus a small fixed header
/// (shape + ids), matching what a real wire format would ship.
int64_t MatrixWireBytes(const Matrix& m);

/// Byte meter of the in-process cross-silo network. It moves nothing:
/// matrices cross between parties through ReliableTransfer (fault.h), which
/// meters every delivery attempt here, so the communication experiments
/// (Fig. 10) can compare stacked vs end-to-end training byte-for-byte.
///
/// Recording is thread-safe: concurrent clients may Send while another
/// thread reads totals or snapshots rounds. Transfers also feed the global
/// obs::MetricsRegistry ("channel.bytes", "channel.bytes.<tag>",
/// "channel.messages", "channel.rounds") so exported metrics snapshots
/// carry per-tag communication without touching the Channel object.
class Channel {
 public:
  Channel() = default;

  /// Routes round wall-time measurement through `clock` (nullptr restores
  /// the real monotonic clock). With a VirtualClock, RoundLog wall_ms
  /// becomes fully deterministic in tests.
  void SetClock(Clock* clock);

  /// Records an arbitrary payload: its bytes, under `tag`, in the totals
  /// and the open round.
  void Send(int64_t bytes, const std::string& tag);

  /// Marks the start of a communication round (a synchronized exchange
  /// between all clients and the coordinator). Closes the wall-time of the
  /// previous round.
  void BeginRound();

  /// Records one retry performed by the reliability layer (fault.h):
  /// `redelivered_bytes` retransmitted bytes land in the open round's
  /// subtotal and the global "channel.retries" / "channel.redelivered_bytes"
  /// counters.
  void RecordRetry(int64_t redelivered_bytes);

  /// Records bytes that were delivered more than once without a retry
  /// (duplicate injection).
  void RecordRedelivered(int64_t bytes);

  int64_t total_bytes() const;
  int64_t message_count() const;
  int64_t rounds() const;
  int64_t retries() const;
  int64_t redelivered_bytes() const;
  int64_t bytes_with_tag(const std::string& tag) const;

  /// Per-round subtotals, index 0 = first BeginRound. Messages sent before
  /// the first BeginRound appear only in the cumulative totals.
  std::vector<ChannelRound> RoundLog() const;

  /// Clears the totals and the round log AND walks back this channel's own
  /// contributions to the global obs counters ("channel.bytes",
  /// "channel.bytes.<tag>", "channel.messages", "channel.rounds",
  /// "channel.retries", "channel.redelivered_bytes"), so registry snapshots
  /// stay equal to the sum of live channel state. Fault-layer counters
  /// ("channel.dropped", "channel.corrupt_detected", "channel.duplicates",
  /// "channel.timeouts") are owned by fault.h and deliberately keep their
  /// process-lifetime totals.
  void Reset();

  /// Multi-line human-readable summary (per-tag byte totals). The format of
  /// the existing lines is stable; downstream parsers keep working.
  std::string Summary() const;

 private:
  /// Registry counter for `tag`, cached so steady-state Send() does not
  /// re-lock the registry. Requires mu_.
  obs::Counter* TagCounterLocked(const std::string& tag);

  /// Round-timing time source; never nullptr after construction. Requires
  /// mu_ for writes; reads happen under mu_ too (cheap, not a hot path).
  int64_t RoundNowNsLocked() const;

  mutable std::mutex mu_;
  Clock* clock_ = nullptr;  // nullptr = real monotonic clock
  std::map<std::string, int64_t> bytes_by_tag_;
  std::map<std::string, obs::Counter*> tag_counters_;
  std::vector<ChannelRound> round_log_;
  int64_t round_start_ns_ = 0;
  int64_t total_bytes_ = 0;
  int64_t messages_ = 0;
  int64_t rounds_ = 0;
  int64_t retries_ = 0;
  int64_t redelivered_bytes_ = 0;
};

}  // namespace silofuse

#endif  // SILOFUSE_DISTRIBUTED_CHANNEL_H_
