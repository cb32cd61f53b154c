#include "missing/selection_bias.h"

#include <vector>

#include "missing/mask.h"

namespace mesa {

Result<SelectionBiasReport> DetectSelectionBias(
    const Table& table, const std::string& attribute,
    const std::string& outcome, const std::string& exposure,
    const SelectionBiasOptions& options) {
  SelectionBiasReport report;
  report.attribute = attribute;

  MESA_ASSIGN_OR_RETURN(const Column* attr, table.ColumnByName(attribute));
  report.missing_fraction = attr->null_fraction();
  if (attr->null_count() == 0) return report;  // fully observed: never biased

  // Code R_E as a two-valued variable over all rows.
  CodedVariable r;
  r.cardinality = 2;
  std::vector<uint8_t> indicator = MissingnessIndicator(*attr);
  r.codes.assign(indicator.begin(), indicator.end());

  // O, T and the trivial code are read through the caller's pointers when
  // given (QueryAnalysis passes them for every candidate), else built here.
  CodedVariable own_oc, own_tc, own_trivial;
  if (options.outcome_codes == nullptr) {
    MESA_ASSIGN_OR_RETURN(
        Discretized o, DiscretizeColumn(table, outcome, options.discretizer));
    own_oc = CodedVariable{std::move(o.codes), o.cardinality, {}};
  }
  if (options.exposure_codes == nullptr) {
    MESA_ASSIGN_OR_RETURN(
        Discretized t, DiscretizeColumn(table, exposure, options.discretizer));
    own_tc = CodedVariable{std::move(t.codes), t.cardinality, {}};
  }
  if (options.trivial_codes == nullptr) {
    own_trivial = ConstantCode(r.codes.size());
  }
  const CodedVariable& oc =
      options.outcome_codes != nullptr ? *options.outcome_codes : own_oc;
  const CodedVariable& tc =
      options.exposure_codes != nullptr ? *options.exposure_codes : own_tc;
  const CodedVariable& trivial =
      options.trivial_codes != nullptr ? *options.trivial_codes : own_trivial;

  // Entity-level attributes are missing *blockwise*: R_E is constant
  // within each exposure value. Row-level permutation tests would then
  // treat every row as independent evidence and flag chance block-level
  // alignment as bias, so when R is blockwise the marginal test runs at
  // the block level — one observation per exposure value, with the block's
  // mean outcome as O.
  bool blockwise = true;
  {
    std::vector<int8_t> block_r(static_cast<size_t>(tc.cardinality), -1);
    for (size_t i = 0; i < r.codes.size() && blockwise; ++i) {
      if (tc.codes[i] < 0) continue;
      int8_t ri = static_cast<int8_t>(r.codes[i]);
      int8_t& slot = block_r[static_cast<size_t>(tc.codes[i])];
      if (slot < 0) {
        slot = ri;
      } else if (slot != ri) {
        blockwise = false;
      }
    }
  }

  if (blockwise && tc.cardinality >= 8) {
    // Block-level test: R_block vs binned mean outcome per block.
    std::vector<double> sum(static_cast<size_t>(tc.cardinality), 0.0);
    std::vector<size_t> cnt(static_cast<size_t>(tc.cardinality), 0);
    std::vector<int8_t> rb(static_cast<size_t>(tc.cardinality), 0);
    MESA_ASSIGN_OR_RETURN(const Column* ocol, table.ColumnByName(outcome));
    for (size_t i = 0; i < r.codes.size(); ++i) {
      if (tc.codes[i] < 0 || !ocol->IsValid(i)) continue;
      size_t b = static_cast<size_t>(tc.codes[i]);
      sum[b] += ocol->NumericAt(i);
      ++cnt[b];
      rb[b] = static_cast<int8_t>(r.codes[i]);
    }
    std::vector<double> means;
    CodedVariable r_block;
    r_block.cardinality = 2;
    for (size_t b = 0; b < cnt.size(); ++b) {
      if (cnt[b] == 0) continue;
      means.push_back(sum[b] / static_cast<double>(cnt[b]));
      r_block.codes.push_back(rb[b]);
    }
    Discretized d = DiscretizeVector(means, options.discretizer);
    CodedVariable o_block{std::move(d.codes), d.cardinality, {}};
    CodedVariable block_trivial = ConstantCode(r_block.codes.size());
    IndependenceOptions block_opts = options.independence;
    block_opts.method = IndependenceMethod::kPermutation;
    IndependenceResult block_test = ConditionalIndependenceTest(
        r_block, o_block, block_trivial, block_opts);
    report.mi_with_outcome = block_test.cmi;
    report.p_value_outcome = block_test.p_value;
    report.mi_given_exposure = 0.0;  // R is a function of T here
    report.p_value_given_exposure = 1.0;
    report.biased = !block_test.independent;
    return report;
  }

  IndependenceResult marginal =
      ConditionalIndependenceTest(r, oc, trivial, options.independence);
  IndependenceResult given_t =
      ConditionalIndependenceTest(r, oc, tc, options.independence);
  report.mi_with_outcome = marginal.cmi;
  report.mi_given_exposure = given_t.cmi;
  report.p_value_outcome = marginal.p_value;
  report.p_value_given_exposure = given_t.p_value;
  report.biased = !marginal.independent || !given_t.independent;
  return report;
}

}  // namespace mesa
