#ifndef SILOFUSE_NN_MODULE_H_
#define SILOFUSE_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "tensor/matrix.h"

namespace silofuse {

class Rng;

/// A trainable tensor: value plus accumulated gradient of the loss w.r.t. it.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter() = default;
  Parameter(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  /// Re-creates the zero grad that Seal released; a no-op while it exists.
  /// Layers call it on every training Forward.
  void EnsureGrad() {
    if (grad.size() == 0) grad = Matrix(value.rows(), value.cols());
  }
};

/// Base class for differentiable layers.
///
/// The framework uses define-by-layer backpropagation rather than a taped
/// autograd: each module caches whatever it needs during Forward and returns
/// the gradient w.r.t. its input from Backward, accumulating parameter
/// gradients as a side effect. A module instance therefore supports exactly
/// one in-flight Forward/Backward pair (which is all the SiloFuse trainers
/// need).
///
/// The denoiser's layers (Linear, Gelu, Dropout, Residual, Sequential) also
/// train in row tiles, as three pieces: a serial PrepareTraining that sizes
/// the batch caches and draws what the forward draws; ForwardRows and
/// BackwardRows, which touch only their rows of those caches, so tiles of
/// disjoint rows may run on different threads; and AccumulateParamGrads,
/// which adds the whole batch's parameter gradients once every row is
/// back. Their training Forward and Backward are these pieces run over the
/// whole batch (Linear's Backward passes the gradient to its weight pass
/// directly rather than through its cache), so a layer's math exists once
/// and a tiled step writes the same bytes as a whole-batch one. Layers without the pieces abort if a
/// tiled trainer reaches them.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Lowercase layer-kind slug ("linear", "layer_norm", ...) used by
  /// containers to build stable fully-qualified parameter names such as
  /// "encoder.linear0.weight".
  virtual const char* TypeName() const { return "module"; }

  /// Computes the layer output. A non-null `train_rng` makes a training
  /// forward: dropout draws from it (no module keeps it) and layers fill
  /// Backward's caches. Inference passes null and skips those caches (an
  /// allocation + copy per layer on the sampling / serving hot path).
  virtual Matrix Forward(const Matrix& input, Rng* train_rng) = 0;

  /// Given dLoss/dOutput, accumulates dLoss/dParams into the parameter
  /// grads and returns dLoss/dInput. Must follow a training Forward
  /// (inference forwards do not populate the caches).
  virtual Matrix Backward(const Matrix& grad_output) = 0;

  /// Serial first piece of a tiled training pass over `rows` input rows of
  /// width `cols`: sizes the batch caches, re-creates released grads and
  /// draws from `train_rng` what a training Forward draws. Returns the
  /// output width.
  virtual int PrepareTraining(int rows, int cols, Rng* train_rng);

  /// Training forward of rows [row0, row0 + input.rows()) of the prepared
  /// batch; writes only those rows of the caches.
  virtual Matrix ForwardRows(const Matrix& input, int row0);

  /// dLoss/dInput of rows [row0, row0 + grad_output.rows()); keeps those
  /// rows of whatever AccumulateParamGrads needs.
  virtual Matrix BackwardRows(const Matrix& grad_output, int row0);

  /// After BackwardRows has covered every row of the batch: adds the whole
  /// batch's gradient to each parameter's grad. A no-op without parameters.
  virtual void AccumulateParamGrads() {}

  /// Pointers to this module's trainable parameters (empty by default).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Marks the weights fixed: Linear packs its weight, every layer drops
  /// its parameters' grads and releases the caches only Backward reads (so
  /// a Backward before the next training Forward fails its shape check),
  /// and containers recurse. A later training Forward undoes it.
  virtual void Seal() {}

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->grad.Fill(0.0f);
  }

  /// Total number of trainable scalars.
  int64_t ParameterCount() {
    int64_t count = 0;
    for (Parameter* p : Parameters()) {
      count += static_cast<int64_t>(p->value.size());
    }
    return count;
  }
};

inline int Module::PrepareTraining(int, int, Rng*) {
  SF_CHECK(false) << TypeName() << "has no row-tiled training";
  return 0;
}

inline Matrix Module::ForwardRows(const Matrix&, int) {
  SF_CHECK(false) << TypeName() << "has no row-tiled training";
  return Matrix();
}

inline Matrix Module::BackwardRows(const Matrix&, int) {
  SF_CHECK(false) << TypeName() << "has no row-tiled training";
  return Matrix();
}

/// Checks that rows [row0, row0 + rows) lie inside a batch cache of
/// `cache_rows` rows, as a row-piece call on a prepared batch must.
inline void CheckRowRange(int row0, int rows, int cache_rows,
                          const char* layer) {
  SF_CHECK(row0 >= 0 && rows >= 0 && row0 + rows <= cache_rows)
      << layer << "rows [" << row0 << "," << row0 + rows << ") outside a"
      << cache_rows << "row batch (no matching PrepareTraining)";
}

/// Prepends `prefix` to every parameter's name. Containers call this once,
/// at build time, so each parameter ends up with a stable fully-qualified
/// name ("encoder.linear0.weight") no matter how deep the nesting. Prefixing
/// never changes parameter order, so checkpoints (which save by order) are
/// unaffected.
inline void PrefixParameterNames(const std::vector<Parameter*>& params,
                                 const std::string& prefix) {
  for (Parameter* p : params) p->name = prefix + p->name;
}

}  // namespace silofuse

#endif  // SILOFUSE_NN_MODULE_H_
