#include "common/archive.h"

#include <algorithm>

namespace silofuse {

namespace {
template <typename T>
void WriteRawImpl(std::ostream* out, T v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(T));
}
}  // namespace

void BinaryWriter::WriteU32(uint32_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteI32(int32_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteI64(int64_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteF32(float v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteF64(double v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteBool(bool v) {
  WriteRawImpl(out_, static_cast<uint8_t>(v ? 1 : 0));
}

void BinaryWriter::WriteString(const std::string& v) {
  WriteU64(v.size());
  out_->write(v.data(), static_cast<std::streamsize>(v.size()));
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteU64(v.size());
  out_->write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  out_->write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
}

template <typename T>
Result<T> BinaryReader::ReadRaw() {
  T v{};
  if (in_ == nullptr ||
      !in_->read(reinterpret_cast<char*>(&v), sizeof(T))) {
    return Status::IOError("unexpected end of archive");
  }
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() { return ReadRaw<uint32_t>(); }
Result<uint64_t> BinaryReader::ReadU64() { return ReadRaw<uint64_t>(); }
Result<int32_t> BinaryReader::ReadI32() { return ReadRaw<int32_t>(); }
Result<int64_t> BinaryReader::ReadI64() { return ReadRaw<int64_t>(); }
Result<float> BinaryReader::ReadF32() { return ReadRaw<float>(); }
Result<double> BinaryReader::ReadF64() { return ReadRaw<double>(); }

Result<bool> BinaryReader::ReadBool() {
  SF_ASSIGN_OR_RETURN(uint8_t v, ReadRaw<uint8_t>());
  if (v > 1) return Status::IOError("corrupt bool in archive");
  return v == 1;
}

template <typename Container>
Result<Container> BinaryReader::ReadSequence(const char* what) {
  SF_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  if (size > kMaxArchiveVectorLength) {
    return Status::IOError(std::string("corrupt ") + what +
                           " length in archive");
  }
  // Bounded chunks: a corrupt length fails at the end of the stream instead
  // of first allocating up to kMaxArchiveVectorLength elements.
  using T = typename Container::value_type;
  constexpr uint64_t kChunkElements = (uint64_t{1} << 20) / sizeof(T);
  Container v;
  while (v.size() < size) {
    const size_t done = v.size();
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kChunkElements, size - done));
    v.resize(done + n);
    if (!in_->read(reinterpret_cast<char*>(v.data() + done),
                   static_cast<std::streamsize>(n * sizeof(T)))) {
      return Status::IOError(std::string("unexpected end of archive in ") +
                             what);
    }
  }
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  return ReadSequence<std::string>("string");
}

Result<std::vector<float>> BinaryReader::ReadFloatVector() {
  return ReadSequence<std::vector<float>>("float vector");
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  return ReadSequence<std::vector<double>>("double vector");
}

Status BinaryReader::ExpectTag(const std::string& tag) {
  SF_ASSIGN_OR_RETURN(std::string got, ReadString());
  if (got != tag) {
    return Status::IOError("archive tag mismatch: expected '" + tag +
                           "', found '" + got + "'");
  }
  return Status::OK();
}

}  // namespace silofuse
