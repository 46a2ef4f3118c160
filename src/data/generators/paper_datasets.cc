#include "data/generators/paper_datasets.h"

#include <algorithm>
#include <map>

#include "data/generators/copula_generator.h"

namespace silofuse {
namespace {

struct DatasetDef {
  PaperDatasetInfo info;
  int target_index = -1;
  uint64_t structure_seed = 0;
};

std::vector<ColumnSpec> Cat(const std::vector<std::pair<std::string, int>>& c) {
  std::vector<ColumnSpec> out;
  out.reserve(c.size());
  for (const auto& [name, card] : c) {
    out.push_back(ColumnSpec::Categorical(name, card));
  }
  return out;
}

std::vector<ColumnSpec> Num(const std::vector<std::string>& names) {
  std::vector<ColumnSpec> out;
  out.reserve(names.size());
  for (const auto& name : names) out.push_back(ColumnSpec::Numeric(name));
  return out;
}

std::vector<ColumnSpec> Concat(std::vector<ColumnSpec> a,
                               const std::vector<ColumnSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

DatasetDef MakeDef(const std::string& name, int paper_rows, int paper_cat,
                   int paper_num, int paper_before, int paper_after,
                   std::vector<ColumnSpec> columns,
                   const std::string& target_column, bool classification,
                   uint64_t structure_seed) {
  DatasetDef def;
  def.info.name = name;
  def.info.paper_rows = paper_rows;
  def.info.paper_categorical = paper_cat;
  def.info.paper_numeric = paper_num;
  def.info.paper_onehot_before = paper_before;
  def.info.paper_onehot_after = paper_after;
  def.info.schema = Schema(std::move(columns));
  def.info.task.target_column = target_column;
  def.info.task.classification = classification;
  def.target_index = def.info.schema.ColumnIndex(target_column).Value();
  def.structure_seed = structure_seed;
  return def;
}

/// The nine benchmark datasets of Table II. Column schemas follow the real
/// datasets' shapes; the churn "surname" cardinality is capped at 512 (the
/// paper's 2932-way column makes one-hot training infeasible at our scale
/// and the expansion-factor comparison survives the cap).
const std::map<std::string, DatasetDef>& Registry() {
  static const std::map<std::string, DatasetDef>* registry = [] {
    auto* reg = new std::map<std::string, DatasetDef>();
    auto add = [reg](DatasetDef def) { (*reg)[def.info.name] = std::move(def); };

    add(MakeDef(
        "abalone", 4177, 2, 8, 10, 39,
        Concat(Num({"length", "diameter", "height", "whole_weight",
                    "shucked_weight", "viscera_weight", "shell_weight",
                    "rings"}),
               Cat({{"sex", 3}, {"size_class", 28}})),
        "rings", /*classification=*/false, /*structure_seed=*/101));

    add(MakeDef(
        "adult", 48842, 9, 5, 14, 108,
        Concat(Num({"age", "fnlwgt", "education_num", "capital_gain",
                    "hours_per_week"}),
               Cat({{"workclass", 9},
                    {"education", 16},
                    {"marital_status", 7},
                    {"occupation", 15},
                    {"relationship", 6},
                    {"race", 5},
                    {"sex", 2},
                    {"native_country", 41},
                    {"income", 2}})),
        "income", true, 102));

    add(MakeDef(
        "cardio", 70000, 7, 5, 12, 21,
        Concat(Num({"age", "height", "weight", "ap_hi", "ap_lo"}),
               Cat({{"gender", 2},
                    {"cholesterol", 3},
                    {"gluc", 3},
                    {"smoke", 2},
                    {"alco", 2},
                    {"active", 2},
                    {"cardio", 2}})),
        "cardio", true, 103));

    add(MakeDef(
        "churn", 10000, 8, 6, 14, 2964,
        Concat(Num({"credit_score", "age", "balance", "estimated_salary",
                    "point_earned", "satisfaction_score"}),
               Cat({{"surname", 512},
                    {"geography", 3},
                    {"gender", 2},
                    {"tenure", 11},
                    {"num_of_products", 4},
                    {"has_cr_card", 2},
                    {"is_active_member", 2},
                    {"exited", 2}})),
        "exited", true, 104));

    {
      std::vector<ColumnSpec> cover_cols =
          Num({"elevation", "aspect", "slope", "horiz_dist_hydrology",
               "vert_dist_hydrology", "horiz_dist_roadways", "hillshade_9am",
               "hillshade_noon", "hillshade_3pm", "horiz_dist_fire_points"});
      for (int w = 1; w <= 4; ++w) {
        cover_cols.push_back(
            ColumnSpec::Categorical("wilderness_area_" + std::to_string(w), 2));
      }
      for (int s = 1; s <= 40; ++s) {
        cover_cols.push_back(
            ColumnSpec::Categorical("soil_type_" + std::to_string(s), 2));
      }
      cover_cols.push_back(ColumnSpec::Categorical("cover_type", 7));
      add(MakeDef("cover", 581012, 45, 10, 55, 104, std::move(cover_cols),
                  "cover_type", true, 105));
    }

    add(MakeDef(
        "diabetes", 768, 2, 7, 9, 26,
        Concat(Num({"pregnancies", "glucose", "blood_pressure",
                    "skin_thickness", "insulin", "bmi",
                    "diabetes_pedigree"}),
               Cat({{"age_group", 17}, {"outcome", 2}})),
        "outcome", true, 106));

    add(MakeDef(
        "heloc", 10250, 12, 12, 24, 239,
        Concat(Num({"external_risk_estimate", "msince_oldest_trade",
                    "msince_recent_trade", "average_m_in_file",
                    "num_satisfactory_trades", "num_total_trades",
                    "num_trades_open_12m", "percent_trades_never_delq",
                    "msince_recent_delq", "num_inq_last_6m",
                    "net_fraction_revolving_burden",
                    "net_fraction_install_burden"}),
               Cat({{"risk_performance", 2},
                    {"max_delq_ever", 8},
                    {"max_delq_12m", 8},
                    {"num_banks", 8},
                    {"delinq_bucket", 16},
                    {"util_bucket", 16},
                    {"trade_open_bucket", 24},
                    {"inq_bucket", 24},
                    {"history_bucket", 24},
                    {"burden_bucket", 32},
                    {"revolving_bucket", 32},
                    {"install_bucket", 33}})),
        "risk_performance", true, 107));

    {
      std::vector<ColumnSpec> intr_cols =
          Num({"duration", "src_bytes", "dst_bytes", "count", "srv_count",
               "serror_rate", "rerror_rate", "same_srv_rate", "diff_srv_rate",
               "dst_host_count", "dst_host_srv_count",
               "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
               "dst_host_serror_rate", "dst_host_rerror_rate",
               "num_compromised", "num_root", "num_file_creations",
               "num_access_files", "hot"});
      std::vector<ColumnSpec> intr_cats = Cat({{"protocol_type", 3},
                                               {"service", 66},
                                               {"flag", 11},
                                               {"class", 5}});
      const char* binaries[] = {
          "land",          "logged_in",       "root_shell",
          "su_attempted",  "is_host_login",   "is_guest_login",
          "urgent_flag",   "fragment_flag",   "failed_logins_flag",
          "num_shells_flag", "outbound_flag", "host_login_flag",
          "srv_diff_host_flag"};
      for (const char* b : binaries) {
        intr_cats.push_back(ColumnSpec::Categorical(b, 2));
      }
      intr_cats.push_back(ColumnSpec::Categorical("level_bucket", 20));
      intr_cats.push_back(ColumnSpec::Categorical("rate_bucket", 25));
      intr_cats.push_back(ColumnSpec::Categorical("host_bucket", 28));
      intr_cats.push_back(ColumnSpec::Categorical("srv_bucket", 30));
      intr_cats.push_back(ColumnSpec::Categorical("conn_bucket", 34));
      add(MakeDef("intrusion", 22544, 22, 20, 42, 268,
                  Concat(std::move(intr_cols), intr_cats), "class", true,
                  108));
    }

    add(MakeDef(
        "loan", 5000, 7, 6, 13, 23,
        Concat(Num({"age", "experience", "income", "ccavg", "mortgage",
                    "zip_norm"}),
               Cat({{"family", 4},
                    {"education", 3},
                    {"personal_loan", 2},
                    {"securities_account", 2},
                    {"cd_account", 2},
                    {"online", 2},
                    {"credit_card", 2}})),
        "personal_loan", true, 109));

    return reg;
  }();
  return *registry;
}

}  // namespace

const std::vector<std::string>& PaperDatasetNames() {
  static const std::vector<std::string>* names = [] {
    auto* out = new std::vector<std::string>();
    for (const auto& [name, def] : Registry()) out->push_back(name);
    return out;
  }();
  return *names;
}

Result<PaperDatasetInfo> GetPaperDatasetInfo(const std::string& name) {
  auto it = Registry().find(name);
  if (it == Registry().end()) {
    return Status::NotFound("unknown paper dataset '" + name + "'");
  }
  return it->second.info;
}

Result<Table> GeneratePaperDataset(const std::string& name, int num_rows,
                                   uint64_t seed) {
  auto it = Registry().find(name);
  if (it == Registry().end()) {
    return Status::NotFound("unknown paper dataset '" + name + "'");
  }
  if (num_rows <= 0) {
    return Status::InvalidArgument("num_rows must be positive");
  }
  const DatasetDef& def = it->second;
  // The structure seed fixes the dataset's "identity" (loadings, marginals,
  // target rule); the caller's seed only controls the sampled rows.
  const int cols = def.info.schema.num_columns();
  const int factors = std::clamp(cols / 8, 4, 8);
  CopulaConfig config = MakeRandomCopulaConfig(
      def.info.schema.columns(), def.target_index, def.structure_seed, factors);
  CopulaGenerator generator(std::move(config));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + def.structure_seed);
  return generator.Generate(num_rows, &rng);
}

}  // namespace silofuse
