#include "distributed/channel.h"

#include <chrono>
#include <sstream>

#include "common/clock.h"
#include "obs/metrics.h"

namespace silofuse {

namespace {
// Shape, sender/receiver ids, tag id, sequence number.
constexpr int64_t kHeaderBytes = 32;

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter* RedeliveredCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("channel.redelivered_bytes");
  return c;
}
}  // namespace

int64_t MatrixWireBytes(const Matrix& m) {
  return kHeaderBytes +
         static_cast<int64_t>(m.size()) * static_cast<int64_t>(sizeof(float));
}

void Channel::SetClock(Clock* clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = clock;
}

int64_t Channel::RoundNowNsLocked() const {
  return clock_ != nullptr ? clock_->NowNs() : MonotonicNs();
}

obs::Counter* Channel::TagCounterLocked(const std::string& tag) {
  auto it = tag_counters_.find(tag);
  if (it != tag_counters_.end()) return it->second;
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("channel.bytes." + tag);
  tag_counters_[tag] = counter;
  return counter;
}

void Channel::Send(int64_t bytes, const std::string& tag) {
  static obs::Counter* total_counter =
      obs::MetricsRegistry::Global().GetCounter("channel.bytes");
  static obs::Counter* message_counter =
      obs::MetricsRegistry::Global().GetCounter("channel.messages");
  obs::Counter* tag_counter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++messages_;
    bytes_by_tag_[tag] += bytes;
    total_bytes_ += bytes;
    if (!round_log_.empty()) {
      round_log_.back().bytes += bytes;
      round_log_.back().messages += 1;
    }
    tag_counter = TagCounterLocked(tag);
  }
  total_counter->Add(bytes);
  message_counter->Increment();
  tag_counter->Add(bytes);
}

void Channel::BeginRound() {
  static obs::Counter* round_counter =
      obs::MetricsRegistry::Global().GetCounter("channel.rounds");
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now_ns = RoundNowNsLocked();
    if (!round_log_.empty()) {
      round_log_.back().wall_ms =
          static_cast<double>(now_ns - round_start_ns_) / 1e6;
    }
    round_start_ns_ = now_ns;
    round_log_.emplace_back();
    ++rounds_;
  }
  round_counter->Increment();
}

void Channel::RecordRetry(int64_t redelivered_bytes) {
  static obs::Counter* retry_counter =
      obs::MetricsRegistry::Global().GetCounter("channel.retries");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++retries_;
    redelivered_bytes_ += redelivered_bytes;
    if (!round_log_.empty()) {
      round_log_.back().retries += 1;
      round_log_.back().redelivered_bytes += redelivered_bytes;
    }
  }
  retry_counter->Increment();
  RedeliveredCounter()->Add(redelivered_bytes);
}

void Channel::RecordRedelivered(int64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    redelivered_bytes_ += bytes;
    if (!round_log_.empty()) {
      round_log_.back().redelivered_bytes += bytes;
    }
  }
  RedeliveredCounter()->Add(bytes);
}

int64_t Channel::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

int64_t Channel::message_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

int64_t Channel::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_;
}

int64_t Channel::retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_;
}

int64_t Channel::redelivered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redelivered_bytes_;
}

int64_t Channel::bytes_with_tag(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bytes_by_tag_.find(tag);
  return it == bytes_by_tag_.end() ? 0 : it->second;
}

std::vector<ChannelRound> Channel::RoundLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChannelRound> out = round_log_;
  // The last round is still open; report its wall time so far.
  if (!out.empty() && out.back().wall_ms == 0.0) {
    out.back().wall_ms =
        static_cast<double>(RoundNowNsLocked() - round_start_ns_) / 1e6;
  }
  return out;
}

void Channel::Reset() {
  // Copy the totals out under the lock, then walk the global obs counters
  // back by exactly this channel's contribution so "registry snapshot ==
  // sum of live channels" keeps holding after a reset (the counters the
  // fault layer owns are documented exceptions — see the header).
  int64_t bytes, messages, rounds, retries, redelivered;
  std::map<std::string, int64_t> by_tag;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bytes = total_bytes_;
    messages = messages_;
    rounds = rounds_;
    retries = retries_;
    redelivered = redelivered_bytes_;
    by_tag = bytes_by_tag_;
    bytes_by_tag_.clear();
    round_log_.clear();
    round_start_ns_ = 0;
    total_bytes_ = 0;
    messages_ = 0;
    rounds_ = 0;
    retries_ = 0;
    redelivered_bytes_ = 0;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("channel.bytes")->Add(-bytes);
  registry.GetCounter("channel.messages")->Add(-messages);
  registry.GetCounter("channel.rounds")->Add(-rounds);
  registry.GetCounter("channel.retries")->Add(-retries);
  RedeliveredCounter()->Add(-redelivered);
  for (const auto& [tag, tag_bytes] : by_tag) {
    registry.GetCounter("channel.bytes." + tag)->Add(-tag_bytes);
  }
}

std::string Channel::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "Channel: " << total_bytes_ << " bytes in " << messages_
      << " messages over " << rounds_ << " rounds\n";
  if (retries_ > 0 || redelivered_bytes_ > 0) {
    out << "  (reliability: " << retries_ << " retries, "
        << redelivered_bytes_ << " redelivered bytes)\n";
  }
  for (const auto& [tag, bytes] : bytes_by_tag_) {
    out << "  " << tag << ": " << bytes << " bytes\n";
  }
  return out.str();
}

}  // namespace silofuse
