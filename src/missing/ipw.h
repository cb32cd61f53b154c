#ifndef MESA_MISSING_IPW_H_
#define MESA_MISSING_IPW_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "stats/logistic.h"
#include "table/table.h"

namespace mesa {

/// Options for inverse-probability-weight estimation.
struct IpwOptions {
  /// Covariate columns used to model P(R_E = 1 | X). They must be fully
  /// observed (columns from the base dataset, per Section 3.2: "Data
  /// available for this are the values of the attributes in D"). Non-
  /// numeric covariates are entered as dense integer codes.
  std::vector<std::string> covariates;
  /// Propensities are clipped to [clip, 1 - clip] before inversion so a few
  /// extreme predictions cannot dominate the weighted estimator.
  double clip = 0.01;
  LogisticOptions logistic;
};

/// Result of weight estimation for one attribute.
struct IpwWeights {
  /// Per-row weight: P(R_E=1) / P̂(R_E=1 | X_i) for complete cases, 0 for
  /// rows where the attribute is missing. Plug these into the weighted
  /// CMI/MI estimators.
  std::vector<double> weights;
  /// Overall observation rate P(R_E = 1).
  double marginal_rate = 0.0;
  bool model_converged = false;
};

/// The covariate design of a propensity model, column-major:
/// `columns[c][i]` is covariate c of row i, standardised over the rows
/// where it is observed. Numeric covariates enter as values; string
/// covariates as dense codes in order of first appearance; a null
/// covariate cell takes the column mean (0 after standardising), keeping
/// the fit defined on all rows. The design depends only on the covariate
/// columns, so one design serves every attribute fitted over the same
/// rows.
struct IpwDesign {
  size_t rows = 0;
  std::vector<std::vector<double>> columns;
};

/// Builds the design over `table`'s rows. Fails if `covariates` is empty
/// or names a missing column.
Result<IpwDesign> BuildIpwDesign(const Table& table,
                                 const std::vector<std::string>& covariates);

/// Computes IPW weights for `attribute` by fitting a logistic regression of
/// its missingness indicator on `design` (the paper's pre-processing
/// step). `design` must cover the attribute's rows; it is not consulted
/// when the attribute is fully observed or fully missing.
/// `options.covariates` is not used here (the design already holds them).
Result<IpwWeights> ComputeIpwWeights(const Column& attribute,
                                     const IpwDesign& design,
                                     const IpwOptions& options);

/// Builds the design from `options.covariates` over `table` and fits
/// `attribute` on it.
Result<IpwWeights> ComputeIpwWeights(const Table& table,
                                     const std::string& attribute,
                                     const IpwOptions& options);

}  // namespace mesa

#endif  // MESA_MISSING_IPW_H_
