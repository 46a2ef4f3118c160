#include "data/csv.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace silofuse {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : temp_files_) std::remove(path.c_str());
  }

  std::string TempPath(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    temp_files_.push_back(path);
    return path;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

  std::vector<std::string> temp_files_;
};

Schema MixedSchema() {
  return Schema({ColumnSpec::Numeric("x"), ColumnSpec::Categorical("c", 3)});
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({1.5, 0}).ok());
  ASSERT_TRUE(t.AppendRow({-2.25, 2}).ok());
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path, MixedSchema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.Value().num_rows(), 2);
  EXPECT_DOUBLE_EQ(back.Value().value(0, 0), 1.5);
  EXPECT_EQ(back.Value().code(1, 1), 2);
}

TEST_F(CsvTest, ReadRejectsHeaderMismatch) {
  const std::string path = TempPath("badheader.csv");
  WriteFile(path, "x,wrong\n1.0,0\n");
  EXPECT_FALSE(ReadCsv(path, MixedSchema()).ok());
}

TEST_F(CsvTest, ReadRejectsBadWidth) {
  const std::string path = TempPath("badwidth.csv");
  WriteFile(path, "x,c\n1.0\n");
  EXPECT_FALSE(ReadCsv(path, MixedSchema()).ok());
}

TEST_F(CsvTest, ReadRejectsUnparseableCell) {
  const std::string path = TempPath("badcell.csv");
  WriteFile(path, "x,c\nfoo,0\n");
  EXPECT_FALSE(ReadCsv(path, MixedSchema()).ok());
}

TEST_F(CsvTest, ReadRejectsOutOfRangeCode) {
  const std::string path = TempPath("badcode.csv");
  WriteFile(path, "x,c\n1.0,7\n");
  EXPECT_FALSE(ReadCsv(path, MixedSchema()).ok());
  // Codes that only land in range after narrowing to int, and fractional
  // codes that only land on one after rounding.
  for (const char* code : {"4294967297", "-4294967296", "0.6"}) {
    WriteFile(path, std::string("x,c\n1.0,") + code + "\n");
    EXPECT_FALSE(ReadCsv(path, MixedSchema()).ok()) << code;
  }
}

TEST_F(CsvTest, MissingFileIsIOError) {
  auto result = ReadCsv("/nonexistent/never.csv", MixedSchema());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, InferSchemaDetectsCategoricalAndNumeric) {
  const std::string path = TempPath("infer.csv");
  WriteFile(path, "a,b\n1.5,0\n2.5,1\n3.5,0\n4.5,1\n");
  auto result = ReadCsvInferSchema(path, /*max_categorical_cardinality=*/4);
  ASSERT_TRUE(result.ok());
  const Schema& schema = result.Value().schema();
  EXPECT_FALSE(schema.column(0).is_categorical());
  EXPECT_TRUE(schema.column(1).is_categorical());
  EXPECT_EQ(schema.column(1).cardinality, 2);

  // An integral value outside the int range keeps the column numeric.
  WriteFile(path, "a\n1e300\n2\n3\n");
  result = ReadCsvInferSchema(path, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.Value().schema().column(0).is_categorical());
  EXPECT_DOUBLE_EQ(result.Value().value(0, 0), 1e300);
}

TEST_F(CsvTest, InferSchemaRemapsSparseCodes) {
  const std::string path = TempPath("remap.csv");
  WriteFile(path, "c\n10\n30\n10\n30\n");
  auto result = ReadCsvInferSchema(path, 4);
  ASSERT_TRUE(result.ok());
  const Table& t = result.Value();
  ASSERT_TRUE(t.schema().column(0).is_categorical());
  EXPECT_EQ(t.code(0, 0), 0);
  EXPECT_EQ(t.code(1, 0), 1);
}

TEST_F(CsvTest, InferSchemaHighCardinalityIntegersStayNumeric) {
  const std::string path = TempPath("highcard.csv");
  std::string content = "id\n";
  for (int i = 0; i < 50; ++i) content += std::to_string(i) + "\n";
  WriteFile(path, content);
  auto result = ReadCsvInferSchema(path, 8);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.Value().schema().column(0).is_categorical());
}

TEST_F(CsvTest, HandlesCrLfLineEndings) {
  const std::string path = TempPath("crlf.csv");
  WriteFile(path, "x,c\r\n1.0,1\r\n");
  auto result = ReadCsv(path, MixedSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().num_rows(), 1);
}

}  // namespace
}  // namespace silofuse
