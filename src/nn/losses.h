#ifndef SILOFUSE_NN_LOSSES_H_
#define SILOFUSE_NN_LOSSES_H_

#include <vector>

#include "tensor/matrix.h"

namespace silofuse {

/// Mean-squared error over all entries; fills *grad with dLoss/dPred.
double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad);

/// MseLoss in the two pieces a trainer running its batch in row tiles
/// needs, with MseLoss's bytes: MseGradRows fills *grad with dLoss/dPred
/// for the rows `pred` and `target` hold, of a batch of `batch_entries`
/// entries in all; MseValue is the loss of the whole batch.
void MseGradRows(const Matrix& pred, const Matrix& target,
                 size_t batch_entries, Matrix* grad);
double MseValue(const Matrix& pred, const Matrix& target);

/// Binary cross-entropy on logits: targets in {0,1}, numerically stable.
/// Fills *grad with dLoss/dLogits (mean reduction over all entries).
double BceWithLogitsLoss(const Matrix& logits, const Matrix& targets,
                         Matrix* grad);

/// Row-wise softmax of `logits`.
Matrix SoftmaxRows(const Matrix& logits);

/// Row-wise log-softmax (numerically stable).
Matrix LogSoftmaxRows(const Matrix& logits);

/// Cross-entropy of one-hot `targets` against `logits` (both n x k), mean
/// over rows. Fills *grad with dLoss/dLogits.
double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& targets,
                               Matrix* grad);

/// Gaussian negative log-likelihood of `target` under N(mean, exp(logvar)),
/// averaged over entries; fills dLoss/dMean and dLoss/dLogvar.
double GaussianNllLoss(const Matrix& mean, const Matrix& logvar,
                       const Matrix& target, Matrix* grad_mean,
                       Matrix* grad_logvar);

}  // namespace silofuse

#endif  // SILOFUSE_NN_LOSSES_H_
