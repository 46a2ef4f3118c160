#include "core/reference_stats.h"

#include <algorithm>
#include <cmath>

#include "metrics/association.h"
#include "metrics/resemblance.h"
#include "privacy/attacks.h"

namespace silofuse {

namespace {

/// `count` evenly spaced empirical quantiles of `values`, endpoints
/// included (nearest-rank on the sorted sample).
std::vector<double> QuantileGrid(const std::vector<double>& values,
                                 int count) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> grid(count);
  const size_t n = sorted.size();
  for (int i = 0; i < count; ++i) {
    const double pos = static_cast<double>(i) / (count - 1) * (n - 1);
    grid[i] = sorted[static_cast<size_t>(pos + 0.5)];
  }
  return grid;
}

std::vector<double> CodeFrequencies(const Table& table, int column,
                                    int cardinality) {
  std::vector<double> freq(cardinality, 0.0);
  for (int r = 0; r < table.num_rows(); ++r) {
    const int code = table.code(r, column);
    if (code >= 0 && code < cardinality) freq[code] += 1.0;
  }
  if (table.num_rows() > 0) {
    for (double& f : freq) f /= table.num_rows();
  }
  return freq;
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Fraction of `values` that are <= x (empirical CDF).
double EmpiricalCdf(const std::vector<double>& sorted, double x) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) / sorted.size();
}

}  // namespace

ReferenceStats ReferenceStats::Capture(const Table& training, int sample_rows,
                                       Rng* rng) {
  ReferenceStats stats;
  stats.schema = training.schema();
  stats.training_rows = training.num_rows();
  stats.columns.reserve(training.num_columns());
  for (int c = 0; c < training.num_columns(); ++c) {
    ColumnSketch sketch;
    if (training.schema().column(c).is_categorical()) {
      sketch.frequencies =
          CodeFrequencies(training, c, training.schema().column(c).cardinality);
    } else if (training.num_rows() > 0) {
      sketch.quantiles = QuantileGrid(training.column_values(c),
                                      kSketchQuantiles);
    }
    stats.columns.push_back(std::move(sketch));
  }
  const Matrix assoc = PairwiseAssociations(training);
  stats.associations.reserve(static_cast<size_t>(assoc.rows()) * assoc.cols());
  for (int r = 0; r < assoc.rows(); ++r) {
    for (int c = 0; c < assoc.cols(); ++c) {
      stats.associations.push_back(assoc.at(r, c));
    }
  }
  const int keep = std::min(sample_rows, training.num_rows());
  stats.reference_sample =
      keep > 0 ? training.Sample(keep, rng) : Table(training.schema());
  return stats;
}

void ReferenceStats::Save(BinaryWriter* writer) const {
  schema.Save(writer);
  writer->WriteI64(training_rows);
  for (const ColumnSketch& sketch : columns) {
    writer->WriteDoubleVector(sketch.quantiles);
    writer->WriteDoubleVector(sketch.frequencies);
  }
  writer->WriteDoubleVector(associations);
  writer->WriteU64(static_cast<uint64_t>(reference_sample.num_rows()));
  for (int c = 0; c < reference_sample.num_columns(); ++c) {
    writer->WriteDoubleVector(reference_sample.column_values(c));
  }
}

Result<ReferenceStats> ReferenceStats::Load(BinaryReader* reader) {
  ReferenceStats stats;
  SF_ASSIGN_OR_RETURN(stats.schema, Schema::Load(reader));
  SF_ASSIGN_OR_RETURN(stats.training_rows, reader->ReadI64());
  const int num_columns = stats.schema.num_columns();
  stats.columns.resize(num_columns);
  for (int c = 0; c < num_columns; ++c) {
    ColumnSketch& sketch = stats.columns[c];
    SF_ASSIGN_OR_RETURN(sketch.quantiles, reader->ReadDoubleVector());
    SF_ASSIGN_OR_RETURN(sketch.frequencies, reader->ReadDoubleVector());
    const ColumnSpec& spec = stats.schema.column(c);
    const size_t quantiles = spec.is_categorical() ? 0 : kSketchQuantiles;
    const size_t codes = spec.is_categorical() ? spec.cardinality : 0;
    if ((!sketch.quantiles.empty() && sketch.quantiles.size() != quantiles) ||
        sketch.frequencies.size() != codes || !AllFinite(sketch.quantiles) ||
        !std::all_of(sketch.frequencies.begin(), sketch.frequencies.end(),
                     [](double f) { return f >= 0.0 && f <= 1.0; })) {
      return Status::IOError("corrupt sketch for column '" + spec.name +
                             "' in reference stats");
    }
  }
  SF_ASSIGN_OR_RETURN(stats.associations, reader->ReadDoubleVector());
  if (stats.associations.size() !=
          static_cast<size_t>(num_columns) * num_columns ||
      !AllFinite(stats.associations)) {
    return Status::IOError("corrupt association summary in reference stats");
  }
  SF_ASSIGN_OR_RETURN(const uint64_t sample_rows, reader->ReadU64());
  if (sample_rows > kMaxArchiveVectorLength) {
    return Status::IOError("corrupt reference sample in reference stats");
  }
  std::vector<std::vector<double>> sample_columns(num_columns);
  for (int c = 0; c < num_columns; ++c) {
    SF_ASSIGN_OR_RETURN(sample_columns[c], reader->ReadDoubleVector());
    if (sample_columns[c].size() != sample_rows) {
      return Status::IOError("corrupt reference sample in reference stats");
    }
  }
  SF_ASSIGN_OR_RETURN(
      stats.reference_sample,
      Table::FromColumns(stats.schema, std::move(sample_columns)));
  return stats;
}

Result<double> MarginalDistanceToSketch(const ReferenceStats& stats,
                                        const Table& batch) {
  if (stats.empty()) {
    return Status::FailedPrecondition("no reference statistics");
  }
  if (!(batch.schema() == stats.schema)) {
    return Status::InvalidArgument("audit batch schema != reference schema");
  }
  if (batch.num_rows() < 1) {
    return Status::InvalidArgument("audit batch is empty");
  }
  double acc = 0.0;
  for (int c = 0; c < stats.schema.num_columns(); ++c) {
    const ColumnSketch& sketch = stats.columns[c];
    if (stats.schema.column(c).is_categorical()) {
      const std::vector<double> freq = [&] {
        std::vector<double> f(sketch.frequencies.size(), 0.0);
        for (int r = 0; r < batch.num_rows(); ++r) {
          const int code = batch.code(r, c);
          if (code >= 0 && code < static_cast<int>(f.size())) f[code] += 1.0;
        }
        for (double& v : f) v /= batch.num_rows();
        return f;
      }();
      double tv = 0.0;
      for (size_t k = 0; k < freq.size(); ++k) {
        tv += std::abs(freq[k] - sketch.frequencies[k]);
      }
      acc += 0.5 * tv;
    } else {
      if (sketch.quantiles.empty()) continue;  // trained on an empty table
      std::vector<double> sorted = batch.column_values(c);
      std::sort(sorted.begin(), sorted.end());
      // KS estimate on the sketch grid: the reference CDF at grid point i is
      // i / (m - 1) by construction, the batch CDF is empirical.
      const int m = static_cast<int>(sketch.quantiles.size());
      double ks = 0.0;
      for (int i = 0; i < m; ++i) {
        const double reference_cdf = static_cast<double>(i) / (m - 1);
        ks = std::max(
            std::abs(reference_cdf - EmpiricalCdf(sorted, sketch.quantiles[i])),
            ks);
      }
      acc += std::min(1.0, ks);
    }
  }
  const double distance = acc / stats.schema.num_columns();
  if (!std::isfinite(distance)) {
    return Status::InvalidArgument(
        "degenerate audit batch produced a non-finite marginal distance");
  }
  return distance;
}

Result<double> AssociationDriftFromReference(const ReferenceStats& stats,
                                             const Table& batch) {
  if (stats.empty()) {
    return Status::FailedPrecondition("no reference statistics");
  }
  if (!(batch.schema() == stats.schema)) {
    return Status::InvalidArgument("audit batch schema != reference schema");
  }
  if (batch.num_rows() < 2) {
    return Status::InvalidArgument(
        "need at least 2 rows to estimate associations");
  }
  const Matrix assoc = PairwiseAssociations(batch);
  const int d = stats.schema.num_columns();
  double acc = 0.0;
  for (int r = 0; r < d; ++r) {
    for (int c = 0; c < d; ++c) {
      acc += std::abs(assoc.at(r, c) - stats.associations[r * d + c]);
    }
  }
  const double drift = acc / (static_cast<double>(d) * d);
  if (!std::isfinite(drift)) {
    return Status::InvalidArgument(
        "degenerate audit batch produced a non-finite association drift");
  }
  return drift;
}

Result<QualityScores> ScoreAgainstReference(const ReferenceStats& stats,
                                            const Table& batch, uint64_t seed,
                                            int64_t pass) {
  QualityScores scores;
  SF_ASSIGN_OR_RETURN(scores.marginal_distance,
                      MarginalDistanceToSketch(stats, batch));
  SF_ASSIGN_OR_RETURN(scores.correlation_drift,
                      AssociationDriftFromReference(stats, batch));
  SF_ASSIGN_OR_RETURN(const ResemblanceBreakdown quick,
                      ComputeResemblanceQuick(stats.reference_sample, batch));
  scores.utility_proxy = quick.overall;
  PrivacyConfig privacy;
  privacy.num_attacks = batch.num_rows();
  Rng dcr_rng(seed ^
              (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(pass + 1)));
  SF_ASSIGN_OR_RETURN(const DcrResult dcr,
                      DistanceToClosestRecord(stats.reference_sample, batch,
                                              privacy, &dcr_rng));
  scores.dcr_p5 = dcr.p5_synthetic;
  return scores;
}

}  // namespace silofuse
