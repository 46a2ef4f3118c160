#ifndef SILOFUSE_TENSOR_MATRIX_H_
#define SILOFUSE_TENSOR_MATRIX_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/mem_stats.h"

namespace silofuse {

/// Dense row-major matrix of float.
///
/// This is the numeric workhorse for the neural-network, diffusion, and
/// metric layers. It is deliberately small: 2-D only, float32 storage,
/// value semantics (copyable/movable), with the handful of kernels the
/// SiloFuse models need (GEMM, plain and with B transposed; broadcasts,
/// reductions, row/column slicing). Accumulations that feed statistics use
/// double internally.
///
/// Large kernels (GEMM, elementwise, broadcasts, row/column reductions)
/// execute on the src/runtime thread pool; small shapes keep the serial
/// path. Chunking never depends on the thread count, so every op returns
/// byte-identical results whether SILOFUSE_NUM_THREADS is 1 or 64 — see
/// runtime/parallel_for.h for the full determinism contract.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {
    SF_CHECK_GE(rows, 0);
    SF_CHECK_GE(cols, 0);
  }

  /// rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, float fill)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Builds a matrix from row-major values; values.size() must equal
  /// rows * cols.
  static Matrix FromVector(int rows, int cols, std::vector<float> values);

  /// I.i.d. N(mean, stddev^2) entries.
  static Matrix RandomNormal(int rows, int cols, Rng* rng, float mean = 0.0f,
                             float stddev = 1.0f);

  /// I.i.d. U[lo, hi) entries.
  static Matrix RandomUniform(int rows, int cols, Rng* rng, float lo = 0.0f,
                              float hi = 1.0f);

  /// Identity matrix of size n.
  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    SF_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    SF_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row_data(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row_data(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// ---- Shape ops -------------------------------------------------------

  Matrix Transpose() const;

  /// Rows [start, start+count) as a new matrix.
  Matrix SliceRows(int start, int count) const;

  /// Columns [start, start+count) as a new matrix.
  Matrix SliceCols(int start, int count) const;

  /// New matrix whose row i is this->row(indices[i]).
  Matrix GatherRows(const std::vector<int>& indices) const;

  /// Horizontal concatenation [A | B | ...]; all parts share row count.
  static Matrix ConcatCols(const std::vector<Matrix>& parts);

  /// Vertical concatenation; all parts share column count.
  static Matrix ConcatRows(const std::vector<Matrix>& parts);

  /// ---- Arithmetic ------------------------------------------------------

  /// this + other (elementwise; shapes must match).
  Matrix Add(const Matrix& other) const;
  /// this - other.
  Matrix Sub(const Matrix& other) const;
  /// Hadamard product.
  Matrix Mul(const Matrix& other) const;
  /// this * scalar.
  Matrix Scale(float scalar) const;

  void AddInPlace(const Matrix& other);
  void SubInPlace(const Matrix& other);
  void MulInPlace(const Matrix& other);
  void ScaleInPlace(float scalar);
  /// this += scalar * other (axpy).
  void Axpy(float scalar, const Matrix& other);
  void Fill(float value);

  /// Adds a 1 x cols row vector to every row (bias broadcast).
  Matrix AddRowBroadcast(const Matrix& row) const;

  /// In-place variant of AddRowBroadcast: adds the 1 x cols() `row` to every
  /// row of this matrix without allocating a copy (hot on inference paths).
  void AddRowBroadcastInPlace(const Matrix& row);

  /// Applies `fn` to every element, returning a new matrix.
  Matrix Apply(const std::function<float(float)>& fn) const;

  /// ---- GEMM ------------------------------------------------------------

  /// C = this(rows x k) * other(k x cols).
  Matrix MatMul(const Matrix& other) const;
  /// C = this * other^T: this (m x k), other (n x k), result (m x n).
  /// Used for input gradients.
  Matrix MatMulTransposedB(const Matrix& other) const;

  /// ---- Reductions ------------------------------------------------------

  /// Sum of all entries (double accumulation).
  double Sum() const;
  /// Mean of all entries.
  double Mean() const;
  /// Min / max entries; matrix must be non-empty.
  float Min() const;
  float Max() const;
  /// Sum over rows: returns 1 x cols.
  Matrix ColSum() const;
  /// Mean over rows: returns 1 x cols.
  Matrix ColMean() const;
  /// Per-column standard deviation (population), returns 1 x cols.
  Matrix ColStd() const;
  /// Squared Frobenius norm.
  double SquaredNorm() const;

  /// Index of the max entry in row r.
  int RowArgMax(int r) const;

  /// True iff all entries are finite.
  bool AllFinite() const;

  /// Debug string "Matrix(3x4)" with optional small-content dump.
  std::string ToString(bool with_values = false) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  // Allocation accounting (live/peak bytes behind SILOFUSE_MEM_STATS) rides
  // on the vector's allocator; with accounting off it degenerates to
  // std::allocator plus one relaxed load per allocation.
  using Buffer = std::vector<float, memstats::TrackingAllocator<float>>;

  int rows_;
  int cols_;
  Buffer data_;
};

}  // namespace silofuse

#endif  // SILOFUSE_TENSOR_MATRIX_H_
