#ifndef SILOFUSE_NN_SEQUENTIAL_H_
#define SILOFUSE_NN_SEQUENTIAL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace silofuse {

/// Chains modules; Forward applies them in order, Backward in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  const char* TypeName() const override { return "sequential"; }

  /// Appends a module; returns *this for fluent construction. The added
  /// module's parameters are prefixed "<type><k>." where k counts modules
  /// of the same type already added ("linear0.weight", "linear1.bias", ...)
  /// — parameter-free layers interleaved between them (activations, dropout)
  /// never shift the indices of the layers that matter.
  Sequential& Add(std::unique_ptr<Module> module) {
    SF_CHECK(module != nullptr);
    const std::string type = module->TypeName();
    const std::string prefix = type + std::to_string(type_counts_[type]++) + ".";
    PrefixParameterNames(module->Parameters(), prefix);
    modules_.push_back(std::move(module));
    return *this;
  }

  /// Convenience: constructs M in place (prefixes names like Add).
  template <typename M, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Matrix Forward(const Matrix& input, Rng* train_rng) override {
    Matrix x = input;
    for (size_t i = 0; i < modules_.size(); ++i) {
      // Inference peephole: a Linear immediately followed by a Gelu runs as
      // one fused GEMM (bias + FastTanh-GELU in the epilogue), skipping the
      // intermediate matrix. Inference Gelu keeps no state, so skipping its
      // Forward is observationally identical; the fused epilogue applies the
      // same scalar chain, so the bytes are too. Training always runs the
      // unfused modules — Backward needs their caches, and training
      // numerics must not depend on fusion.
      if (train_rng == nullptr && i + 1 < modules_.size()) {
        auto* linear = dynamic_cast<Linear*>(modules_[i].get());
        if (linear != nullptr &&
            dynamic_cast<Gelu*>(modules_[i + 1].get()) != nullptr) {
          x = linear->ForwardFusedGelu(x);
          ++i;
          continue;
        }
      }
      x = modules_[i]->Forward(x, train_rng);
    }
    return x;
  }

  Matrix Backward(const Matrix& grad_output) override {
    Matrix g = grad_output;
    for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
      g = (*it)->Backward(g);
    }
    return g;
  }

  std::vector<Parameter*> Parameters() override {
    std::vector<Parameter*> params;
    for (auto& m : modules_) {
      for (Parameter* p : m->Parameters()) params.push_back(p);
    }
    return params;
  }

  void Seal() override {
    for (auto& m : modules_) m->Seal();
  }

  /// Removes all modules (used when a synthesizer is re-fit).
  void Clear() {
    modules_.clear();
    type_counts_.clear();
  }

  size_t size() const { return modules_.size(); }
  Module* module(size_t i) { return modules_.at(i).get(); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::map<std::string, int> type_counts_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_SEQUENTIAL_H_
