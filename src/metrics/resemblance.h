#ifndef SILOFUSE_METRICS_RESEMBLANCE_H_
#define SILOFUSE_METRICS_RESEMBLANCE_H_

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"

namespace silofuse {

/// The five statistical components of the paper's resemblance score plus
/// their mean, each on a 0-100 scale (higher is better).
struct ResemblanceBreakdown {
  double column_similarity = 0.0;
  double correlation_similarity = 0.0;
  double jensen_shannon = 0.0;
  double kolmogorov_smirnov = 0.0;
  double propensity = 0.0;
  double overall = 0.0;
};

/// Computes the composite resemblance score of Section V-B:
///  1. Column similarity — Q-Q correlation (numeric) / 1-TV (categorical);
///  2. Correlation similarity — 1 - mean |association matrix difference|;
///  3. Jensen-Shannon similarity — 1 - JS distance per column;
///  4. Kolmogorov-Smirnov similarity — 1 - KS statistic (numeric) or
///     1 - TV (categorical);
///  5. Propensity — 1 - 2*mean|p - 0.5| for a GBT real-vs-synthetic
///     discriminator evaluated on a held-out third.
/// Tables must share a schema.
Result<ResemblanceBreakdown> ComputeResemblance(const Table& real,
                                                const Table& synth, Rng* rng);

/// Cheap deterministic subset, the utility proxy of ScoreAgainstReference
/// (core/reference_stats.h): column similarity (1), Jensen-Shannon (3), and
/// Kolmogorov-Smirnov (4) only — no GBT propensity model, no association
/// matrices — with `overall` the mean of the three. The skipped components
/// stay 0. Costs milliseconds on probe-sized batches, so it can run inside
/// a training loop.
Result<ResemblanceBreakdown> ComputeResemblanceQuick(const Table& real,
                                                     const Table& synth);

}  // namespace silofuse

#endif  // SILOFUSE_METRICS_RESEMBLANCE_H_
