#ifndef SILOFUSE_CORE_REFERENCE_STATS_H_
#define SILOFUSE_CORE_REFERENCE_STATS_H_

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"

namespace silofuse {

/// Compact per-column summary of a training distribution.
///
/// Numeric columns keep an evenly-spaced quantile grid (including min/max);
/// categorical columns keep the empirical frequency of every code. Either
/// vector is empty for the other column kind.
struct ColumnSketch {
  std::vector<double> quantiles;    // numeric: kSketchQuantiles points
  std::vector<double> frequencies;  // categorical: one entry per code
};

/// Reference statistics captured at training time and embedded in the
/// checkpoint, so a serving host can score live synthetic traffic against
/// the distribution the model was trained on without ever shipping the
/// training table itself (only marginal sketches, a pairwise association
/// summary, and a small row subsample for DCR/utility scoring leave the
/// training site).
///
/// Serialization is a versioned trailing checkpoint section (see
/// SiloFuse::SaveCheckpoint); pre-existing checkpoints simply lack it and
/// load with `empty() == true` ("no reference").
struct ReferenceStats {
  /// Quantile grid size for numeric sketches (includes both endpoints).
  static constexpr int kSketchQuantiles = 33;
  /// The utility proxy refuses tables under 10 rows, so a smaller reference
  /// sample could never score a batch.
  static constexpr int kMinSampleRows = 10;
  /// Default size of the row subsample Capture keeps, and the seed of the
  /// private Rng the trainers draw it with.
  static constexpr int kDefaultSampleRows = 256;
  static constexpr uint64_t kCaptureSeed = 0x5f5e7a7501ULL;

  Schema schema;
  int64_t training_rows = 0;
  std::vector<ColumnSketch> columns;  // one per schema column
  /// PairwiseAssociations of the training table, row-major d x d.
  std::vector<double> associations;
  /// Row subsample of the training table for DCR and utility scoring.
  Table reference_sample;

  bool empty() const { return schema.num_columns() == 0; }
  /// False means "no reference": nothing is scored against these stats.
  bool scoreable() const {
    return !empty() && reference_sample.num_rows() >= kMinSampleRows;
  }

  /// Captures sketches, associations and a row subsample of up to
  /// `sample_rows` rows from `training`. `rng` drives only the subsample.
  static ReferenceStats Capture(const Table& training, int sample_rows,
                                Rng* rng);

  /// Checkpoint support. Save writes only the payload; the caller frames it
  /// with a section tag + version (silofuse.cc) so absence is detectable.
  /// Load rejects a payload whose sketches the scorers could not index: a
  /// categorical sketch must hold exactly `cardinality` frequencies in
  /// [0, 1], a numeric one 0 or kSketchQuantiles quantiles, and every sketch
  /// and association value must be finite.
  void Save(BinaryWriter* writer) const;
  static Result<ReferenceStats> Load(BinaryReader* reader);
};

/// Kolmogorov-Smirnov-style distance (in [0, 1]) between `batch` and the
/// sketched training marginals: per numeric column the largest CDF gap on
/// the sketch's quantile grid, per categorical column the total-variation
/// distance of the code frequencies; returns the mean over columns.
/// `batch` must share the sketch schema and have at least one row.
Result<double> MarginalDistanceToSketch(const ReferenceStats& stats,
                                        const Table& batch);

/// Mean absolute difference between `batch`'s pairwise association matrix
/// and the training-time summary, i.e. the online version of
/// AssociationDifference. Non-finite entries (degenerate batches) surface
/// as a descriptive error instead of NaN.
Result<double> AssociationDriftFromReference(const ReferenceStats& stats,
                                             const Table& batch);

/// One synthetic batch's quality scores against a training-time reference,
/// from the scorer that training probes (obs/health.h) and the serving
/// auditor (obs/quality_audit.h) share.
struct QualityScores {
  double marginal_distance = 0.0;  // MarginalDistanceToSketch, [0, 1]
  double correlation_drift = 0.0;  // AssociationDriftFromReference
  double utility_proxy = 0.0;      // ComputeResemblanceQuick overall, 0-100
  double dcr_p5 = 0.0;             // 5th-percentile synthetic DCR
};

/// Scores `batch` against `stats`; the DCR sample is drawn from a stream
/// seeded by `seed` and the caller's scoring-pass index `pass`. A batch a
/// scorer refuses (too few rows, non-finite values, schema mismatch) is
/// degenerate: the first refusal, in field order, is returned.
Result<QualityScores> ScoreAgainstReference(const ReferenceStats& stats,
                                            const Table& batch, uint64_t seed,
                                            int64_t pass);

}  // namespace silofuse

#endif  // SILOFUSE_CORE_REFERENCE_STATS_H_
