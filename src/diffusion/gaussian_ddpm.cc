#include "diffusion/gaussian_ddpm.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "diffusion/time_embedding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix_io.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/losses.h"

namespace silofuse {
namespace {

// x0 estimates are clamped during sampling so an occasional bad prediction at
// high noise levels cannot blow up the trajectory.
constexpr float kX0Clamp = 10.0f;

// Approximate per-element cost (ns) of the noising row kernel (a few
// double mul/div per element). The runtime turns this into
// a grain, so small batches stay serial and large ones fan out; each row
// writes a disjoint slice, so results are bit-exact at any chunking.
constexpr double kNsPerElemRow = 8.0;

// Row-blocked dispatch for ForwardProcess.
template <typename Fn>
void ForBatchRows(int rows, int cols, Fn&& fn) {
  ParallelForCost(0, rows, static_cast<double>(cols) * kNsPerElemRow, fn);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Telemetry handles, registered once. Timing happens at train-step and
// denoise-step granularity only — never inside the per-row loops.
struct DdpmMetrics {
  obs::Gauge* train_loss;
  obs::Gauge* train_grad_norm;
  obs::Counter* train_steps;
  obs::Counter* sample_rows;
  obs::Counter* sample_steps;
  obs::Gauge* sample_rows_per_sec;
  obs::Histogram* sample_step_ms;
};

const DdpmMetrics& Metrics() {
  static const DdpmMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    DdpmMetrics m;
    m.train_loss = registry.GetGauge("ddpm.train.loss");
    m.train_grad_norm = registry.GetGauge("ddpm.train.grad_norm");
    m.train_steps = registry.GetCounter("ddpm.train.steps");
    m.sample_rows = registry.GetCounter("ddpm.sample.rows");
    m.sample_steps = registry.GetCounter("ddpm.sample.steps");
    m.sample_rows_per_sec = registry.GetGauge("ddpm.sample.rows_per_sec");
    m.sample_step_ms = registry.GetHistogram(
        "ddpm.sample.step_ms",
        {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000});
    return m;
  }();
  return metrics;
}

}  // namespace

GaussianDdpm::GaussianDdpm(const GaussianDdpmConfig& config, Rng* rng)
    : config_(config), schedule_(config.num_timesteps, config.schedule) {
  SF_CHECK_GT(config.data_dim, 0);
  SF_CHECK_GE(config.num_layers, 2);
  const int in_dim = config.data_dim + config.time_embed_dim;
  // Body: input projection, residual GELU blocks, output projection. The
  // hidden blocks are residual so the net trains at small step budgets; the
  // separate `skip_` path (z_t -> prediction) lets the model represent the
  // near-identity eps ~ x_t solution at high noise levels immediately.
  backbone_.Emplace<Linear>(in_dim, config.hidden_dim, rng);
  backbone_.Emplace<Gelu>();
  if (config.dropout > 0.0f) backbone_.Emplace<Dropout>(config.dropout);
  for (int l = 0; l < config.num_layers - 2; ++l) {
    auto block = std::make_unique<Sequential>();
    block->Emplace<Linear>(config.hidden_dim, config.hidden_dim, rng);
    block->Emplace<Gelu>();
    if (config.dropout > 0.0f) block->Emplace<Dropout>(config.dropout);
    backbone_.Emplace<Residual>(std::move(block));
  }
  backbone_.Emplace<Linear>(config.hidden_dim, config.data_dim, rng);
  skip_ = std::make_unique<Linear>(config.data_dim, config.data_dim, rng);
  PrefixParameterNames(backbone_.Parameters(), "backbone.");
  PrefixParameterNames(skip_->Parameters(), "skip.");
}

void GaussianDdpm::PrepareForSampling() {
  backbone_.Seal();
  skip_->Seal();
  optimizer_.reset();
}

Matrix GaussianDdpm::ForwardProcess(const Matrix& z0, const std::vector<int>& t,
                                    const Matrix& eps) const {
  SF_CHECK_EQ(z0.rows(), static_cast<int>(t.size()));
  SF_CHECK(z0.rows() == eps.rows() && z0.cols() == eps.cols());
  Matrix out(z0.rows(), z0.cols());
  ForBatchRows(z0.rows(), z0.cols(), [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r) {
      const double s0 = schedule_.sqrt_alpha_bar(t[r]);
      const double s1 = schedule_.sqrt_one_minus_alpha_bar(t[r]);
      const float* z = z0.row_data(r);
      const float* e = eps.row_data(r);
      float* o = out.row_data(r);
      for (int c = 0; c < z0.cols(); ++c) {
        o[c] = static_cast<float>(s0 * z[c] + s1 * e[c]);
      }
    }
  });
  return out;
}

Matrix GaussianDdpm::ForwardBackbone(const Matrix& z_t,
                                     const std::vector<int>& t,
                                     Rng* train_rng) {
  SF_CHECK_EQ(z_t.cols(), config_.data_dim);
  SF_CHECK_EQ(z_t.rows(), static_cast<int>(t.size()));
  Matrix t_emb = SinusoidalTimeEmbedding(t, config_.time_embed_dim);
  Matrix input = Matrix::ConcatCols({z_t, t_emb});
  Matrix out = backbone_.Forward(input, train_rng);
  out.AddInPlace(skip_->Forward(z_t, train_rng));
  return out;
}

Matrix GaussianDdpm::BackwardBackbone(const Matrix& grad_prediction) {
  Matrix grad_input = backbone_.Backward(grad_prediction);
  Matrix grad_zt = grad_input.SliceCols(0, config_.data_dim);
  grad_zt.AddInPlace(skip_->Backward(grad_prediction));
  return grad_zt;
}

void GaussianDdpm::Save(BinaryWriter* writer) {
  writer->WriteString("gaussian_ddpm");
  writer->WriteI32(config_.data_dim);
  writer->WriteI32(config_.num_timesteps);
  writer->WriteI32(static_cast<int32_t>(config_.schedule));
  writer->WriteI32(static_cast<int32_t>(config_.predict));
  writer->WriteI32(config_.time_embed_dim);
  writer->WriteI32(config_.hidden_dim);
  writer->WriteI32(config_.num_layers);
  writer->WriteF32(config_.dropout);
  writer->WriteF32(config_.lr);
  writer->WriteF32(config_.grad_clip);
  const std::vector<Parameter*> params = Parameters();
  writer->WriteU64(params.size());
  for (Parameter* p : params) SaveMatrix(writer, p->value);
}

Result<std::unique_ptr<GaussianDdpm>> GaussianDdpm::LoadFrom(
    BinaryReader* reader) {
  SF_RETURN_NOT_OK(reader->ExpectTag("gaussian_ddpm"));
  GaussianDdpmConfig config;
  SF_ASSIGN_OR_RETURN(config.data_dim, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(config.num_timesteps, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(int32_t schedule, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(int32_t predict, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(config.time_embed_dim, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(config.hidden_dim, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(config.num_layers, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(config.dropout, reader->ReadF32());
  SF_ASSIGN_OR_RETURN(config.lr, reader->ReadF32());
  SF_ASSIGN_OR_RETURN(config.grad_clip, reader->ReadF32());
  // Everything the constructor (and the first Sample) would SF_CHECK.
  if (config.data_dim <= 0 || config.num_timesteps <= 0 || schedule < 0 ||
      schedule > 1 || predict < 0 || predict > 1 ||
      config.time_embed_dim <= 0 || config.time_embed_dim % 2 != 0 ||
      config.hidden_dim <= 0 || config.num_layers < 2) {
    return Status::IOError("corrupt diffusion config in archive");
  }
  config.schedule = static_cast<ScheduleType>(schedule);
  config.predict = static_cast<DiffusionPrediction>(predict);
  Rng init_rng(0);  // weights are overwritten below
  auto ddpm = std::make_unique<GaussianDdpm>(config, &init_rng);
  std::vector<Parameter*> params = ddpm->Parameters();
  SF_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (count != params.size()) {
    return Status::IOError("diffusion parameter count mismatch in archive");
  }
  for (Parameter* p : params) {
    SF_ASSIGN_OR_RETURN(Matrix value, LoadMatrix(reader));
    if (value.rows() != p->value.rows() || value.cols() != p->value.cols()) {
      return Status::IOError("diffusion parameter shape mismatch");
    }
    p->value = std::move(value);
  }
  ddpm->PrepareForSampling();
  return ddpm;
}

double GaussianDdpm::TrainStep(const Matrix& z0, Rng* rng) {
  SF_TRACE_SPAN("ddpm.train_step");
  const int batch = z0.rows();
  SF_CHECK_GT(batch, 0);
  std::vector<int> t(batch);
  for (int r = 0; r < batch; ++r) {
    t[r] = static_cast<int>(rng->UniformInt(1, schedule_.num_timesteps()));
  }
  Matrix eps = Matrix::RandomNormal(batch, z0.cols(), rng);
  Matrix z_t = ForwardProcess(z0, t, eps);
  Matrix prediction = ForwardBackbone(z_t, t, rng);
  const Matrix& target =
      config_.predict == DiffusionPrediction::kEpsilon ? eps : z0;
  Matrix grad;
  const double loss = MseLoss(prediction, target, &grad);
  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<Adam>(Parameters(), config_.lr);
  }
  optimizer_->ZeroGrad();
  BackwardBackbone(grad);
  const double grad_norm = optimizer_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  const DdpmMetrics& metrics = Metrics();
  metrics.train_loss->Set(loss);
  metrics.train_grad_norm->Set(grad_norm);
  metrics.train_steps->Increment();
  return loss;
}

Matrix GaussianDdpm::Sample(int n, int steps, Rng* rng, double eta) {
  return SampleCoalesced({n}, {rng}, steps, eta);
}

Matrix GaussianDdpm::SampleCoalesced(const std::vector<int>& block_rows,
                                     const std::vector<Rng*>& rngs, int steps,
                                     double eta) {
  SF_TRACE_SPAN("ddpm.sample");
  SF_CHECK(!block_rows.empty());
  SF_CHECK_EQ(block_rows.size(), rngs.size());
  int n = 0;
  for (int rows : block_rows) {
    SF_CHECK_GT(rows, 0);
    n += rows;
  }
  const DdpmMetrics& metrics = Metrics();
  const double sample_start_ms = NowMs();
  const int dim = config_.data_dim;
  // Fills `out` (n x dim) with one draw: block i's rows come from rngs[i]
  // in the same row-major order Sample() would use, so the seed-pinned
  // trajectory of a block never depends on what else rides in the batch.
  const auto draw_noise = [&](Matrix* out) {
    SF_TRACE_SPAN("ddpm.sample.noise");
    float* v = out->data();
    for (size_t i = 0; i < block_rows.size(); ++i) {
      float* const block_end = v + static_cast<size_t>(block_rows[i]) * dim;
      for (; v != block_end; ++v) *v = static_cast<float>(rngs[i]->Normal());
    }
  };
  Matrix x(n, dim);
  draw_noise(&x);

  // Every step's coefficients, computed once, so the check "does step i + 1
  // draw noise?" and step i + 1's update read the same sigma.
  struct StepCoefs {
    int t = 0;
    bool final_step = false;
    double rs0 = 0.0, rs1 = 0.0;  // x0 recovery: the schedule's sqrt tables
    double sigma = 0.0, coef_x0 = 0.0, dir_coef = 0.0, s0 = 0.0, s1 = 0.0;
  };
  const std::vector<int> taus = schedule_.InferenceTimesteps(steps);
  std::vector<StepCoefs> coefs(taus.size());
  bool any_noise = false;
  for (size_t i = 0; i < taus.size(); ++i) {
    StepCoefs& k = coefs[i];
    k.t = taus[i];
    const int t_prev = (i + 1 < taus.size()) ? taus[i + 1] : 0;
    k.rs0 = schedule_.sqrt_alpha_bar(k.t);
    k.rs1 = schedule_.sqrt_one_minus_alpha_bar(k.t);
    k.final_step = t_prev == 0;
    if (k.final_step) continue;
    const double abar_t = schedule_.alpha_bar(k.t);
    const double abar_prev = schedule_.alpha_bar(t_prev);
    // Generalized (DDIM) update: eta in [0,1] interpolates deterministic
    // to ancestral sampling.
    k.sigma = eta * std::sqrt((1.0 - abar_prev) / (1.0 - abar_t) *
                              (1.0 - abar_t / abar_prev));
    k.coef_x0 = std::sqrt(abar_prev);
    k.dir_coef = std::sqrt(std::max(0.0, 1.0 - abar_prev - k.sigma * k.sigma));
    k.s0 = std::sqrt(abar_t);
    k.s1 = std::sqrt(1.0 - abar_t);
    any_noise = any_noise || k.sigma > 0.0;
  }
  const auto draws = [&](size_t i) {
    return i < coefs.size() && coefs[i].sigma > 0.0;
  };
  // Three n x dim buffers, reused across steps. Step i reads `x` and
  // writes `next`. A step with noise finds it already drawn in `next`, and
  // its update overwrites each element after reading it. Step i + 1's noise
  // is drawn into `spare` meanwhile. At the step boundary the buffers
  // rotate: `next` becomes `x`, `spare` becomes `next`, and the old `x` is
  // spare. Passes without noise use `x` and `next` alone.
  Matrix next(n, dim);
  Matrix spare;
  if (any_noise) spare = Matrix(n, dim);
  if (draws(0)) draw_noise(&next);

  const bool eps_mode = config_.predict == DiffusionPrediction::kEpsilon;
  const int num_tiles = (n + kSampleTileRows - 1) / kSampleTileRows;
  for (size_t i = 0; i < coefs.size(); ++i) {
    SF_TRACE_SPAN("ddpm.sample.step");
    const double step_start_ms = NowMs();
    const StepCoefs& k = coefs[i];
    const bool draw_next = draws(i + 1);
    // Denoises rows [r0, r0 + x_rows.rows()) of the batch: the backbone
    // forward, then x0 recovery, the ±kX0Clamp guard and the DDIM update
    // fused in one pass over the rows. Per element, x0 is recovered from
    // the schedule's precomputed sqrt tables (rs0/rs1), rounded to float
    // and clamped; the DDIM update then uses s0/s1, re-derived from
    // alpha_bar in the step table. Keep this exact scalar chain: the
    // sampled bytes of a fixed seed depend on it.
    const auto denoise_rows = [&](const Matrix& x_rows, int r0) {
      const std::vector<int> t_rows(x_rows.rows(), k.t);
      const Matrix prediction =
          ForwardBackbone(x_rows, t_rows, /*train_rng=*/nullptr);
      for (int r = 0; r < x_rows.rows(); ++r) {
        const float* xr = x_rows.row_data(r);
        const float* pr = prediction.row_data(r);
        float* nr = next.row_data(r0 + r);
        const float* zr = k.sigma > 0.0 ? nr : nullptr;  // drawn in place
        for (int c = 0; c < dim; ++c) {
          float x0v = eps_mode
                          ? static_cast<float>((xr[c] - k.rs1 * pr[c]) / k.rs0)
                          : pr[c];
          x0v = std::max(-kX0Clamp, std::min(kX0Clamp, x0v));
          if (k.final_step) {
            nr[c] = x0v;
            continue;
          }
          // Recovered eps from the (clamped) x0 estimate.
          const double eps_hat = (xr[c] - k.s0 * x0v) / k.s1;
          double v = k.coef_x0 * x0v + k.dir_coef * eps_hat;
          if (zr != nullptr) v += k.sigma * zr[c];
          nr[c] = static_cast<float>(v);
        }
      }
    };
    if (num_tiles == 1) {
      denoise_rows(x, 0);
      if (draw_next) draw_noise(&spare);
    } else {
      // One region per step; the kernels inside a tile run serially on
      // the thread that owns it. When step i + 1 has noise, item 0 draws
      // it while the other items denoise this step's tiles. That item is
      // the only user of the Rngs during the pass and walks them in the
      // serial order (block by block, row-major), so every value, and each
      // Rng's state after the pass, equals a draw made before the region,
      // at any thread count.
      const int first_tile = draw_next ? 1 : 0;
      ParallelFor(0, first_tile + num_tiles, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t item = lo; item < hi; ++item) {
          if (item < first_tile) {
            draw_noise(&spare);
            continue;
          }
          const int r0 = static_cast<int>(item - first_tile) * kSampleTileRows;
          denoise_rows(x.SliceRows(r0, std::min(kSampleTileRows, n - r0)),
                       r0);
        }
      });
    }
    std::swap(x, next);
    if (any_noise) std::swap(next, spare);
    metrics.sample_step_ms->Observe(NowMs() - step_start_ms);
    metrics.sample_steps->Increment();
  }
  metrics.sample_rows->Add(n);
  const double elapsed_ms = NowMs() - sample_start_ms;
  if (elapsed_ms > 0.0) {
    metrics.sample_rows_per_sec->Set(1000.0 * n / elapsed_ms);
  }
  return x;
}

}  // namespace silofuse
