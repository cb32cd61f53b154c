#include "missing/ipw.h"

#include <algorithm>
#include <cmath>

#include "missing/mask.h"
#include "query/group_by.h"

namespace mesa {

Result<IpwDesign> BuildIpwDesign(const Table& table,
                                 const std::vector<std::string>& covariates) {
  if (covariates.empty()) {
    return Status::InvalidArgument("IPW needs at least one covariate");
  }
  const size_t n = table.num_rows();
  IpwDesign design;
  design.rows = n;
  for (const std::string& name : covariates) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name));
    std::vector<double> raw(n, 0.0);
    std::vector<uint8_t> ok(n, 0);
    if (col->type() == DataType::kString) {
      MESA_ASSIGN_OR_RETURN(std::vector<int32_t> codes,
                            EncodeGroups(table, name, nullptr));
      for (size_t i = 0; i < n; ++i) {
        if (codes[i] >= 0) {
          raw[i] = static_cast<double>(codes[i]);
          ok[i] = 1;
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (col->IsValid(i)) {
          raw[i] = col->NumericAt(i);
          ok[i] = 1;
        }
      }
    }
    double mean = 0.0;
    size_t cnt = 0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        mean += raw[i];
        ++cnt;
      }
    }
    mean = cnt > 0 ? mean / static_cast<double>(cnt) : 0.0;
    // Standardise for solver conditioning.
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        double d = raw[i] - mean;
        var += d * d;
      }
    }
    double sd = cnt > 1 ? std::sqrt(var / static_cast<double>(cnt - 1)) : 1.0;
    if (sd <= 0.0) sd = 1.0;
    std::vector<double>& x = design.columns.emplace_back(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = ok[i] ? (raw[i] - mean) / sd : 0.0;
    }
  }
  return design;
}

Result<IpwWeights> ComputeIpwWeights(const Column& attribute,
                                     const IpwDesign& design,
                                     const IpwOptions& options) {
  const size_t n = attribute.size();
  std::vector<uint8_t> r = MissingnessIndicator(attribute);
  size_t observed = 0;
  for (uint8_t v : r) observed += v;
  IpwWeights out;
  out.marginal_rate = n == 0 ? 0.0 : static_cast<double>(observed) / n;
  out.weights.assign(n, 0.0);
  if (observed == 0 || observed == n) {
    // Nothing to reweight: all-missing stays all-zero; fully observed gets
    // unit weights.
    if (observed == n) out.weights.assign(n, 1.0);
    out.model_converged = true;
    return out;
  }
  if (design.rows != n) {
    return Status::InvalidArgument("IPW design covers " +
                                   std::to_string(design.rows) +
                                   " rows, attribute has " + std::to_string(n));
  }

  MESA_ASSIGN_OR_RETURN(LogisticModel model,
                        FitLogistic(design.columns, r, options.logistic));
  out.model_converged = model.converged();

  for (size_t i = 0; i < n; ++i) {
    if (!r[i]) continue;  // incomplete case: weight 0
    double p = model.PredictProbability(design.columns, i);
    p = std::clamp(p, options.clip, 1.0 - options.clip);
    out.weights[i] = out.marginal_rate / p;
  }
  return out;
}

Result<IpwWeights> ComputeIpwWeights(const Table& table,
                                     const std::string& attribute,
                                     const IpwOptions& options) {
  if (options.covariates.empty()) {
    return Status::InvalidArgument("IPW needs at least one covariate");
  }
  MESA_ASSIGN_OR_RETURN(const Column* attr, table.ColumnByName(attribute));
  // A fully observed or fully missing attribute needs no model.
  IpwDesign design;
  if (attr->null_count() != 0 && attr->null_count() != attr->size()) {
    MESA_ASSIGN_OR_RETURN(design, BuildIpwDesign(table, options.covariates));
  }
  return ComputeIpwWeights(*attr, design, options);
}

}  // namespace mesa
