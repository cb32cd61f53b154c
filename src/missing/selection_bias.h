#ifndef MESA_MISSING_SELECTION_BIAS_H_
#define MESA_MISSING_SELECTION_BIAS_H_

#include <string>

#include "common/result.h"
#include "info/independence.h"
#include "stats/discretizer.h"
#include "table/table.h"

namespace mesa {

/// Diagnosis of the missingness mechanism of one extracted attribute.
struct SelectionBiasReport {
  std::string attribute;
  double missing_fraction = 0.0;
  /// I(R_E ; O | C) — dependence of the missingness indicator on the
  /// outcome.
  double mi_with_outcome = 0.0;
  /// I(R_E ; O | T, C) — the same dependence within exposure groups.
  double mi_given_exposure = 0.0;
  double p_value_outcome = 1.0;
  double p_value_given_exposure = 1.0;
  /// True when either test rejects: the sufficient conditions of
  /// Proposition 3.2 ((O ⟂ R_E | ...) marginally and given T) fail and IPW
  /// weights are required. Note the tests are about the *outcome*: entity-
  /// level attributes are always missing blockwise in T, which is harmless
  /// as long as the affected rows are outcome-representative.
  bool biased = false;
};

/// Options for the detector.
struct SelectionBiasOptions {
  /// Row-level tests default to the asymptotic G-test: the detector runs
  /// once per extracted attribute over the full table, where 99
  /// permutations each would dominate preparation time. The block-level
  /// path (entity-wise missingness) always permutes — it has one
  /// observation per entity, too few for the chi-squared asymptotics.
  IndependenceOptions independence{.method = IndependenceMethod::kGTest};
  DiscretizerOptions discretizer;
  /// Precomputed codes for the outcome / exposure columns. The detector
  /// runs once per extracted attribute, so re-discretising O and T on
  /// every call dominates preparation time on large tables; callers that
  /// already hold the codes (QueryAnalysis) pass them here.
  const CodedVariable* outcome_codes = nullptr;
  const CodedVariable* exposure_codes = nullptr;
  /// Optional shared constant (trivial) code over the table's rows, the
  /// conditioning set of the marginal test.
  const CodedVariable* trivial_codes = nullptr;
};

/// Tests whether complete-case analysis of `attribute` is safe for a query
/// over (outcome, exposure): Propositions 3.2/3.3 hold when the selection
/// indicator R_E is independent of O and of T. Both marginal dependencies
/// are tested with the permutation independence test; rejection of either
/// flags selection bias, in which case the estimators must use IPW weights
/// (Section 3.2). An attribute with no missing values is never biased.
Result<SelectionBiasReport> DetectSelectionBias(
    const Table& table, const std::string& attribute,
    const std::string& outcome, const std::string& exposure,
    const SelectionBiasOptions& options = {});

}  // namespace mesa

#endif  // MESA_MISSING_SELECTION_BIAS_H_
