#ifndef SILOFUSE_CORE_SILOFUSE_H_
#define SILOFUSE_CORE_SILOFUSE_H_

#include <memory>
#include <vector>

#include "core/reference_stats.h"
#include "distributed/channel.h"
#include "distributed/client.h"
#include "distributed/coordinator.h"
#include "distributed/fault.h"
#include "distributed/partition.h"
#include "models/latent_diffusion.h"
#include "models/synthesizer.h"

namespace silofuse {

/// Configuration of a SiloFuse deployment.
struct SiloFuseOptions {
  /// Model sizes and training budgets shared with the centralized
  /// baselines. Client autoencoders get hidden_dim / num_clients hidden
  /// units ("embedding and hidden dimensions ... equally partitioned
  /// between clients"); each client's latent width defaults to its column
  /// count.
  LatentDiffusionConfig base;
  PartitionConfig partition;  // paper default: 4 clients, no permutation
  /// Minimum per-client hidden width after the split.
  int min_client_hidden = 16;
  /// Fault injection + reliable transfer (fault.h). Every cross-silo
  /// matrix transfer runs through checksummed delivery with bounded retry,
  /// exponential backoff, and per-attempt timeouts; a null plan injects no
  /// faults, so each transfer is delivered on its first attempt.
  FaultInjection fault;
  /// K-of-M degraded mode: minimum number of silos whose latent upload must
  /// succeed for training to proceed (failed silos are dropped and the
  /// partition bookkeeping compacted to the surviving columns). 0 = require
  /// every silo; any permanent upload failure aborts Fit with kUnavailable.
  int min_clients = 0;
  /// Rows of the training table retained as the checkpoint's DCR/utility
  /// reference sample (core/reference_stats.h). Captured before the latent
  /// DDPM trains, from a fixed-seed Rng, so the training trajectory and the
  /// caller's rng are untouched. 0 disables capture — the checkpoint is then
  /// in the pre-ReferenceStats format, and quality probes do not run.
  int reference_stats_rows = ReferenceStats::kDefaultSampleRows;
};

/// Per-call override of the inference schedule (Algorithm 2, lines 3-4).
/// Fields left at their sentinel defaults fall back to the trained model's
/// configuration, so `SamplingParams{}` reproduces the configured path
/// byte-for-byte. Serving uses {steps=25, eta=0.0} — the paper's few-step
/// DDIM setting ("training 200 timesteps, inference over 25 steps") —
/// without re-training or rewriting the checkpoint.
struct SamplingParams {
  int steps = 0;      // <= 0: use options().base.inference_steps
  double eta = -1.0;  // < 0: use options().base.sampling_eta
};

/// One caller's slice of a coalesced synthesis batch: `rows` output rows
/// whose noise (and decoder sampling) comes exclusively from `rng`.
struct CoalescedRequest {
  int rows = 0;
  Rng* rng = nullptr;
};

/// Phase boundary feedback from SynthesizeCoalesced for the serving layer's
/// latency decomposition: timestamps on the trace epoch (obs::TraceNowNs).
/// The shared denoising pass covers [sample_start_ns, sample_end_ns];
/// per-request decode + reassembly runs from sample_end_ns until return.
struct CoalescedTiming {
  int64_t sample_start_ns = 0;
  int64_t sample_end_ns = 0;
};

/// SiloFuse: cross-silo synthetic data generation with a distributed latent
/// tabular diffusion model (the paper's core contribution).
///
/// Training follows Algorithm 1: each client trains a private autoencoder
/// on its vertical feature slice, ships its latent matrix to the coordinator
/// exactly once, and the coordinator trains a Gaussian DDPM on the
/// concatenated latents — one communication round regardless of iteration
/// counts. Synthesis follows Algorithm 2: the coordinator denoises Gaussian
/// noise into synthetic latents, sends each client its slice, and clients
/// decode locally, preserving vertical partitioning.
///
/// Usage:
///   SiloFuse model(options);
///   SF_RETURN_NOT_OK(model.Fit(table, &rng));
///   auto parts = model.SynthesizePartitioned(n, &rng);   // stays in silos
///   auto shared = model.Synthesize(n, &rng);             // post-gen sharing
class SiloFuse : public Synthesizer {
 public:
  explicit SiloFuse(SiloFuseOptions options = {})
      : options_(std::move(options)) {}

  /// Simulation convenience: vertically partitions `data` per the options
  /// and runs Algorithm 1 across the resulting in-process silos.
  Status Fit(const Table& data, Rng* rng) override;

  /// Cross-silo entry point: trains on pre-partitioned client feature sets
  /// (rows must be aligned across parts — the PSI step of Section II-B).
  /// `partition[i]` gives part i's original column indices (used only to
  /// restore column order on reassembly).
  Status FitPartitioned(std::vector<Table> parts,
                        std::vector<std::vector<int>> partition, Rng* rng);

  /// Algorithm 2 with post-generation sharing: clients' synthetic slices
  /// are concatenated back into one table (the scenario whose risk Table VI
  /// quantifies).
  Result<Table> Synthesize(int num_rows, Rng* rng) override;

  /// Same, with a per-call inference schedule (steps/eta). The default
  /// `SamplingParams{}` is byte-identical to the two-argument form.
  Result<Table> Synthesize(int num_rows, Rng* rng,
                           const SamplingParams& params);

  /// Algorithm 2 keeping the synthetic data vertically partitioned — the
  /// stronger-privacy mode backed by Theorem 1 — with an optional per-call
  /// inference schedule (steps/eta).
  Result<std::vector<Table>> SynthesizePartitioned(
      int num_rows, Rng* rng, const SamplingParams& params = {});

  /// Coalesced Algorithm 2 for the serving layer: all requests share ONE
  /// batched denoising pass (request i's noise comes only from
  /// requests[i].rng), then each request's latent slice is decoded per
  /// client with its own rng. Output i is byte-identical to
  /// Synthesize(requests[i].rows, requests[i].rng, params) on the same
  /// deployment, so a server may batch whatever concurrent traffic arrives
  /// without changing any caller's bytes. Runs entirely locally (no channel
  /// traffic): this is the decode-only hosting path, not the cross-silo
  /// protocol.
  /// `timing`, when non-null, receives the sample/decode phase boundary.
  Result<std::vector<Table>> SynthesizeCoalesced(
      const std::vector<CoalescedRequest>& requests,
      const SamplingParams& params = {}, CoalescedTiming* timing = nullptr);

  std::string name() const override { return "SiloFuse"; }

  const Channel& channel() const { return channel_; }
  Channel* mutable_channel() { return &channel_; }
  const std::vector<std::vector<int>>& partition() const { return partition_; }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  SiloClient* client(int i) { return clients_.at(i).get(); }
  Coordinator* coordinator() { return coordinator_.get(); }
  const SiloFuseOptions& options() const { return options_; }

  /// Original ids of silos dropped by K-of-M degraded training (empty on a
  /// fault-free or fully-recovered run).
  const std::vector<int>& degraded_silos() const { return degraded_silos_; }

  /// Training-time reference statistics for quality probes and online
  /// auditing. Empty when capture was disabled or the checkpoint predates
  /// the ReferenceStats section ("no reference").
  const ReferenceStats& reference_stats() const { return reference_stats_; }
  bool has_reference_stats() const { return !reference_stats_.empty(); }

  /// Total latent width s = sum_i s_i.
  int total_latent_dim() const;

  /// Trace run id allocated by the last Fit (0 before any fit). Synthesis
  /// reuses it, so one trained deployment is one causally-linked trace.
  uint32_t trace_run_id() const { return trace_run_id_; }

  /// Persists the trained deployment (partition, client autoencoders,
  /// coordinator backbone, sampling settings) to `path`. In a real
  /// deployment each party would checkpoint only its own component; the
  /// single-file form suits the in-process simulation.
  Status SaveCheckpoint(const std::string& path);

  /// Restores a synthesis-ready model from SaveCheckpoint output. The
  /// restored clients are decode-only (no training features are stored).
  static Result<std::unique_ptr<SiloFuse>> LoadCheckpoint(
      const std::string& path);

 private:
  /// Algorithm 2's client side: each client decodes its column slice of `z`
  /// with `rng`, in silo order, and the slices are reassembled.
  Result<Table> DecodeAndReassemble(const Matrix& z, Rng* rng);

  /// `params` with its sentinels replaced by the configured steps and eta.
  SamplingParams Resolve(const SamplingParams& params) const;

  SiloFuseOptions options_;
  std::vector<std::vector<int>> partition_;
  std::vector<std::unique_ptr<SiloClient>> clients_;
  std::unique_ptr<Coordinator> coordinator_;
  Channel channel_;
  std::vector<int> degraded_silos_;
  ReferenceStats reference_stats_;
  uint32_t trace_run_id_ = 0;
  bool fitted_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_CORE_SILOFUSE_H_
