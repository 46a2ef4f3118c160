#ifndef SILOFUSE_DATA_GENERATORS_PAPER_DATASETS_H_
#define SILOFUSE_DATA_GENERATORS_PAPER_DATASETS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace silofuse {

/// Downstream task attached to a benchmark dataset.
struct DatasetTask {
  std::string target_column;
  /// True for classification (macro-F1), false for regression (D2 score).
  bool classification = true;
};

/// Published statistics of a paper benchmark dataset (Table II) alongside
/// the statistics of our simulated stand-in.
struct PaperDatasetInfo {
  std::string name;
  int paper_rows = 0;
  int paper_categorical = 0;
  int paper_numeric = 0;
  int paper_onehot_before = 0;
  int paper_onehot_after = 0;
  /// Our generator's schema (cardinalities capped at 512 — see DESIGN.md §4).
  Schema schema;
  DatasetTask task;
};

/// Names of the nine benchmark datasets, in the paper's order:
/// abalone, adult, cardio, churn, cover, diabetes, heloc, intrusion, loan.
const std::vector<std::string>& PaperDatasetNames();

/// Info (paper stats + our schema/task) for `name`; error if unknown.
Result<PaperDatasetInfo> GetPaperDatasetInfo(const std::string& name);

/// Generates `num_rows` rows of the simulated stand-in for `name`.
/// Deterministic in (name, num_rows, seed).
Result<Table> GeneratePaperDataset(const std::string& name, int num_rows,
                                   uint64_t seed);

}  // namespace silofuse

#endif  // SILOFUSE_DATA_GENERATORS_PAPER_DATASETS_H_
