#ifndef SILOFUSE_COMMON_ARCHIVE_H_
#define SILOFUSE_COMMON_ARCHIVE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace silofuse {

/// Minimal little-endian binary serialization used for model checkpoints.
/// Every value is written through a fixed-width primitive; strings and
/// vectors are length-prefixed. Readers validate stream state on every read
/// and return Status instead of throwing.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& v);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteDoubleVector(const std::vector<double>& v);

  bool ok() const { return out_ != nullptr && out_->good(); }

 private:
  std::ostream* out_;  // not owned
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in) : in_(in) {}

  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<std::vector<float>> ReadFloatVector();
  Result<std::vector<double>> ReadDoubleVector();

  /// Reads an expected literal tag; error if the stream holds another.
  Status ExpectTag(const std::string& tag);

 private:
  template <typename T>
  Result<T> ReadRaw();
  /// A u64 element count, then that many elements of Container.
  template <typename Container>
  Result<Container> ReadSequence(const char* what);

  std::istream* in_;  // not owned
};

/// Guards against unbounded allocations from corrupt checkpoints.
constexpr uint64_t kMaxArchiveVectorLength = 1ULL << 30;

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_ARCHIVE_H_
