#include "data/csv.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/string_util.h"

namespace silofuse {

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out << ",";
    out << schema.column(c).name;
  }
  out << "\n";
  for (int r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out << ",";
      if (schema.column(c).is_categorical()) {
        out << table.code(r, c);
      } else {
        out << FormatDouble(table.value(r, c), 9);
      }
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

namespace {

Result<std::vector<std::vector<std::string>>> ReadRawCsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    rows.push_back(Split(line, ','));
  }
  if (rows.empty()) return Status::InvalidArgument("empty CSV '" + path + "'");
  return rows;
}

}  // namespace

Result<Table> ReadCsv(const std::string& path, const Schema& schema) {
  SF_ASSIGN_OR_RETURN(auto rows, ReadRawCsv(path));
  const auto& header = rows[0];
  if (static_cast<int>(header.size()) != schema.num_columns()) {
    return Status::InvalidArgument("CSV header width does not match schema");
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (Trim(header[c]) != schema.column(c).name) {
      return Status::InvalidArgument("CSV header mismatch at column " +
                                     std::to_string(c) + ": got '" +
                                     header[c] + "', expected '" +
                                     schema.column(c).name + "'");
    }
  }
  Table table(schema);
  std::vector<double> row(schema.num_columns());
  for (size_t r = 1; r < rows.size(); ++r) {
    if (static_cast<int>(rows[r].size()) != schema.num_columns()) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) +
                                     " has wrong width");
    }
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (!ParseDouble(rows[r][c], &row[c])) {
        return Status::InvalidArgument("cannot parse '" + rows[r][c] +
                                       "' at row " + std::to_string(r));
      }
      if (schema.column(c).is_categorical() && row[c] != std::floor(row[c])) {
        return Status::InvalidArgument("non-integral categorical code '" +
                                       rows[r][c] + "' at row " +
                                       std::to_string(r));
      }
    }
    SF_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

Result<Table> ReadCsvInferSchema(const std::string& path,
                                 int max_categorical_cardinality) {
  SF_ASSIGN_OR_RETURN(auto rows, ReadRawCsv(path));
  const auto& header = rows[0];
  const int cols = static_cast<int>(header.size());
  std::vector<std::vector<double>> values(cols);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (static_cast<int>(rows[r].size()) != cols) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) +
                                     " has wrong width");
    }
    for (int c = 0; c < cols; ++c) {
      double v;
      if (!ParseDouble(rows[r][c], &v)) {
        return Status::InvalidArgument("cannot parse '" + rows[r][c] +
                                       "' at row " + std::to_string(r));
      }
      values[c].push_back(v);
    }
  }
  Schema schema;
  for (int c = 0; c < cols; ++c) {
    std::set<int> distinct;
    bool all_int = true;
    for (double v : values[c]) {
      // A value outside the int range keeps the column numeric; it is also
      // never narrowed, which would be undefined for such a double.
      if (v != std::floor(v) || v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        all_int = false;
        break;
      }
      distinct.insert(static_cast<int>(v));
      if (static_cast<int>(distinct.size()) > max_categorical_cardinality) {
        break;
      }
    }
    const std::string name = Trim(header[c]);
    if (all_int && static_cast<int>(distinct.size()) >= 2 &&
        static_cast<int>(distinct.size()) <= max_categorical_cardinality) {
      // Remap codes densely.
      std::map<int, int> remap;
      for (int v : distinct) {
        const int next = static_cast<int>(remap.size());
        remap[v] = next;
      }
      for (double& v : values[c]) v = remap[static_cast<int>(v)];
      schema.AddColumn(ColumnSpec::Categorical(name,
                                               static_cast<int>(distinct.size())));
    } else {
      schema.AddColumn(ColumnSpec::Numeric(name));
    }
  }
  return Table::FromColumns(std::move(schema), std::move(values));
}

}  // namespace silofuse
