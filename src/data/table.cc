#include "data/table.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace silofuse {

namespace {

// True when `v` rounds to a code of a column with `cardinality` levels. The
// double is range-checked before any narrowing: converting first would wrap
// an out-of-range value (4294967297 -> 1) or NaN into a valid int.
bool IsValidCode(double v, int cardinality) {
  const double code = std::round(v);
  return code >= 0.0 && code < static_cast<double>(cardinality);
}

}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
}

Result<Table> Table::FromColumns(Schema schema,
                                 std::vector<std::vector<double>> columns) {
  if (static_cast<int>(columns.size()) != schema.num_columns()) {
    return Status::InvalidArgument("column count does not match schema");
  }
  Table t(std::move(schema));
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("columns have differing lengths");
    }
  }
  t.columns_ = std::move(columns);
  t.num_rows_ = static_cast<int>(rows);
  SF_RETURN_NOT_OK(t.Validate());
  return t;
}

int Table::code(int row, int col) const {
  SF_CHECK(schema_.column(col).is_categorical())
      << "column" << col << "is not categorical";
  return static_cast<int>(std::lround(value(row, col)));
}

Status Table::AppendRow(const std::vector<double>& values) {
  if (static_cast<int>(values.size()) != num_columns()) {
    return Status::InvalidArgument("row width does not match schema");
  }
  for (int c = 0; c < num_columns(); ++c) {
    const ColumnSpec& spec = schema_.column(c);
    if (spec.is_categorical()) {
      if (!IsValidCode(values[c], spec.cardinality)) {
        return Status::OutOfRange("categorical code out of range in column '" +
                                  spec.name + "'");
      }
    } else if (!std::isfinite(values[c])) {
      return Status::InvalidArgument("non-finite value in column '" +
                                     spec.name + "'");
    }
  }
  for (int c = 0; c < num_columns(); ++c) columns_[c].push_back(values[c]);
  ++num_rows_;
  return Status::OK();
}

Table Table::SliceRows(int start, int count) const {
  SF_CHECK(start >= 0 && count >= 0 && start + count <= num_rows_);
  Table out(schema_);
  out.num_rows_ = count;
  for (int c = 0; c < num_columns(); ++c) {
    out.columns_[c].assign(columns_[c].begin() + start,
                           columns_[c].begin() + start + count);
  }
  return out;
}

Table Table::GatherRows(const std::vector<int>& indices) const {
  Table out(schema_);
  out.num_rows_ = static_cast<int>(indices.size());
  for (int c = 0; c < num_columns(); ++c) {
    out.columns_[c].reserve(indices.size());
    for (int r : indices) {
      SF_CHECK(r >= 0 && r < num_rows_);
      out.columns_[c].push_back(columns_[c][r]);
    }
  }
  return out;
}

Table Table::SelectColumns(const std::vector<int>& indices) const {
  Table out(schema_.Select(indices));
  out.num_rows_ = num_rows_;
  out.columns_.clear();
  out.columns_.reserve(indices.size());
  for (int i : indices) out.columns_.push_back(columns_.at(i));
  return out;
}

Result<Table> Table::ConcatColumns(const std::vector<Table>& parts) {
  if (parts.empty()) return Status::InvalidArgument("no tables to concat");
  const int rows = parts[0].num_rows();
  Schema schema;
  std::vector<std::vector<double>> columns;
  for (const Table& p : parts) {
    if (p.num_rows() != rows) {
      return Status::InvalidArgument(
          "row count mismatch in column concatenation (sample alignment "
          "violated)");
    }
    for (int c = 0; c < p.num_columns(); ++c) {
      schema.AddColumn(p.schema().column(c));
      columns.push_back(p.columns_[c]);
    }
  }
  return FromColumns(std::move(schema), std::move(columns));
}

Result<Table> Table::ConcatRows(const std::vector<Table>& parts) {
  if (parts.empty()) return Status::InvalidArgument("no tables to concat");
  const Schema& schema = parts[0].schema();
  for (const Table& p : parts) {
    if (!(p.schema() == schema)) {
      return Status::InvalidArgument("schema mismatch in row concatenation");
    }
  }
  Table out(schema);
  for (const Table& p : parts) {
    out.num_rows_ += p.num_rows();
    for (int c = 0; c < schema.num_columns(); ++c) {
      out.columns_[c].insert(out.columns_[c].end(), p.columns_[c].begin(),
                             p.columns_[c].end());
    }
  }
  return out;
}

Matrix Table::ToMatrix() const {
  Matrix out(num_rows_, num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    const std::vector<double>& col = columns_[c];
    for (int r = 0; r < num_rows_; ++r) {
      out.at(r, c) = static_cast<float>(col[r]);
    }
  }
  return out;
}

Table Table::FromMatrix(const Schema& schema, const Matrix& values) {
  SF_CHECK_EQ(schema.num_columns(), values.cols());
  Table out(schema);
  out.num_rows_ = values.rows();
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnSpec& spec = schema.column(c);
    std::vector<double>& col = out.columns_[c];
    col.resize(values.rows());
    for (int r = 0; r < values.rows(); ++r) {
      double v = values.at(r, c);
      if (spec.is_categorical()) {
        int code = static_cast<int>(std::lround(v));
        code = std::max(0, std::min(spec.cardinality - 1, code));
        col[r] = code;
      } else {
        col[r] = v;
      }
    }
  }
  return out;
}

Table Table::Sample(int count, Rng* rng) const {
  SF_CHECK_LE(count, num_rows_);
  return GatherRows(rng->SampleWithoutReplacement(num_rows_, count));
}

Status Table::Validate() const {
  SF_RETURN_NOT_OK(schema_.Validate());
  for (int c = 0; c < num_columns(); ++c) {
    const ColumnSpec& spec = schema_.column(c);
    if (!spec.is_categorical()) continue;
    for (double v : columns_[c]) {
      if (!IsValidCode(v, spec.cardinality)) {
        return Status::OutOfRange("categorical code " + FormatDouble(v, 17) +
                                  " out of range in column '" + spec.name +
                                  "'");
      }
    }
  }
  return Status::OK();
}

std::string Table::Preview(int max_rows) const {
  std::ostringstream out;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) out << ", ";
    out << schema_.column(c).name;
  }
  out << "\n";
  const int rows = std::min(max_rows, num_rows_);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out << ", ";
      if (schema_.column(c).is_categorical()) {
        out << code(r, c);
      } else {
        out << FormatDouble(value(r, c), 3);
      }
    }
    out << "\n";
  }
  if (num_rows_ > rows) out << "... (" << num_rows_ << " rows)\n";
  return out.str();
}

}  // namespace silofuse
