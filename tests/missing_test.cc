#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/logging.h"
#include "common/rng.h"
#include "label.h"
#include "missing/imputation.h"
#include "missing/ipw.h"
#include "missing/mask.h"
#include "missing/selection_bias.h"
#include "stats/ols.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// Builds a table where `attr` depends on a latent and `outcome` depends on
// the same latent; missingness of attr can be random or outcome-driven.
Table MakeWorld(size_t n, bool biased_missing, double missing_rate,
                uint64_t seed = 99) {
  Rng rng(seed);
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"attr", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    double latent = rng.NextGaussian();
    std::string group = latent > 0 ? "hi" : "lo";
    double attr = latent + rng.NextGaussian(0, 0.3);
    double outcome = 2.0 * latent + rng.NextGaussian(0, 0.5);
    bool missing = biased_missing
                       ? outcome > 1.0 && rng.NextBernoulli(missing_rate * 3)
                       : rng.NextBernoulli(missing_rate);
    MESA_CHECK(b.AppendRow({Value::String(group),
                            missing ? Value::Null() : Value::Double(attr),
                            Value::Double(outcome)})
                   .ok());
  }
  return *b.Finish();
}

// ------------------------------------------------------------------ mask

TEST(Mask, MissingnessIndicator) {
  Column c(DataType::kDouble);
  c.AppendDouble(1);
  c.AppendNull();
  c.AppendDouble(2);
  auto r = MissingnessIndicator(c);
  EXPECT_EQ(r, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_NEAR(MissingFraction(c), 1.0 / 3.0, 1e-12);
}

TEST(Mask, InjectRandomMissing) {
  Table t = MakeWorld(1000, false, 0.0);
  Rng rng(1);
  auto removed = InjectMissing(&t, "attr", 0.3, RemovalMode::kRandom, &rng);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 300u);
  EXPECT_NEAR((*t.ColumnByName("attr"))->null_fraction(), 0.3, 1e-12);
}

TEST(Mask, InjectTopValuesRemovesHighest) {
  Table t = MakeWorld(1000, false, 0.0);
  // Remember the max before removal.
  const Column* col = *t.ColumnByName("attr");
  double max_before = -1e300;
  for (size_t i = 0; i < col->size(); ++i) {
    max_before = std::max(max_before, col->DoubleAt(i));
  }
  Rng rng(1);
  ASSERT_TRUE(
      InjectMissing(&t, "attr", 0.2, RemovalMode::kTopValues, &rng).ok());
  col = *t.ColumnByName("attr");
  double max_after = -1e300;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsValid(i)) max_after = std::max(max_after, col->DoubleAt(i));
  }
  EXPECT_LT(max_after, max_before);
}

TEST(Mask, InjectIsIncrementalOverPresentValues) {
  Table t = MakeWorld(1000, false, 0.0);
  Rng rng(1);
  ASSERT_TRUE(InjectMissing(&t, "attr", 0.5, RemovalMode::kRandom, &rng).ok());
  ASSERT_TRUE(InjectMissing(&t, "attr", 0.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_NEAR((*t.ColumnByName("attr"))->null_fraction(), 0.75, 1e-12);
}

TEST(Mask, InjectErrors) {
  Table t = MakeWorld(10, false, 0.0);
  Rng rng(1);
  EXPECT_FALSE(InjectMissing(&t, "attr", 1.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_FALSE(
      InjectMissing(&t, "ghost", 0.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_FALSE(
      InjectMissing(&t, "group", 0.5, RemovalMode::kTopValues, &rng).ok());
}

// -------------------------------------------------------- selection bias

TEST(SelectionBias, FullyObservedNeverBiased) {
  Table t = MakeWorld(2000, false, 0.0);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
  EXPECT_DOUBLE_EQ(r->missing_fraction, 0.0);
}

TEST(SelectionBias, RandomMissingNotBiased) {
  Table t = MakeWorld(4000, false, 0.3);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
}

TEST(SelectionBias, OutcomeDrivenMissingDetected) {
  Table t = MakeWorld(4000, true, 0.3);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->biased);
  EXPECT_GT(r->mi_with_outcome, 0.0);
  EXPECT_LT(r->p_value_outcome, 0.05);
}

// Entity-level (blockwise) missingness: the attribute is either fully
// observed or fully missing per group — the KG extraction pattern.
Table MakeBlockwiseWorld(size_t n, bool outcome_aligned, uint64_t seed) {
  Rng rng(seed);
  const size_t kGroups = 60;
  std::vector<double> latent(kGroups);
  std::vector<uint8_t> missing(kGroups);
  for (size_t g = 0; g < kGroups; ++g) latent[g] = rng.NextGaussian();
  if (outcome_aligned) {
    // Drop the attribute for the highest-outcome third of the groups.
    std::vector<size_t> order(kGroups);
    for (size_t g = 0; g < kGroups; ++g) order[g] = g;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return latent[a] > latent[b]; });
    for (size_t i = 0; i < kGroups / 3; ++i) missing[order[i]] = 1;
  } else {
    for (size_t g = 0; g < kGroups; ++g) {
      missing[g] = rng.NextBernoulli(1.0 / 3.0) ? 1 : 0;
    }
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"attr", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    size_t g = rng.NextBelow(kGroups);
    MESA_CHECK(b.AppendRow({Value::String(Label("g", g)),
                            missing[g] ? Value::Null()
                                       : Value::Double(latent[g]),
                            Value::Double(2.0 * latent[g] +
                                          rng.NextGaussian(0, 0.3))})
                   .ok());
  }
  return *b.Finish();
}

TEST(SelectionBias, BlockwiseOutcomeAlignedDetected) {
  Table t = MakeBlockwiseWorld(8000, /*outcome_aligned=*/true, 7);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->biased);
  // The block-level path reports no within-exposure dependence (R is a
  // function of the group there).
  EXPECT_DOUBLE_EQ(r->mi_given_exposure, 0.0);
}

TEST(SelectionBias, BlockwiseRandomNotDetected) {
  // Row-level tests would flag chance block alignment at 8000 rows; the
  // block-level test correctly sees ~60 exchangeable observations.
  Table t = MakeBlockwiseWorld(8000, /*outcome_aligned=*/false, 11);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
}

TEST(SelectionBias, MissingColumnErrors) {
  Table t = MakeWorld(100, false, 0.1);
  EXPECT_FALSE(DetectSelectionBias(t, "ghost", "outcome", "group").ok());
}

// ------------------------------------------------------------------- IPW

TEST(Ipw, FullyObservedGetsUnitWeights) {
  Table t = MakeWorld(500, false, 0.0);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w->marginal_rate, 1.0);
  for (double x : w->weights) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Ipw, MissingRowsGetZeroWeight) {
  Table t = MakeWorld(2000, false, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  const Column* attr = *t.ColumnByName("attr");
  for (size_t i = 0; i < attr->size(); ++i) {
    if (attr->IsNull(i)) {
      EXPECT_DOUBLE_EQ(w->weights[i], 0.0);
    } else {
      EXPECT_GT(w->weights[i], 0.0);
    }
  }
}

TEST(Ipw, BiasedMissingnessUpweightsUnderrepresented) {
  // High-outcome rows are preferentially dropped, so surviving high-outcome
  // rows must get above-average weights.
  Table t = MakeWorld(6000, true, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->model_converged);
  const Column* attr = *t.ColumnByName("attr");
  const Column* outcome = *t.ColumnByName("outcome");
  double hi_sum = 0, hi_n = 0, lo_sum = 0, lo_n = 0;
  for (size_t i = 0; i < attr->size(); ++i) {
    if (attr->IsNull(i)) continue;
    if (outcome->DoubleAt(i) > 1.0) {
      hi_sum += w->weights[i];
      ++hi_n;
    } else {
      lo_sum += w->weights[i];
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 0);
  ASSERT_GT(lo_n, 0);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n);
}

TEST(Ipw, RandomMissingnessWeightsNearUniform) {
  Table t = MakeWorld(6000, false, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  double sum = 0, sum_sq = 0, n = 0;
  for (double x : w->weights) {
    if (x > 0) {
      sum += x;
      sum_sq += x * x;
      ++n;
    }
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_LT(var, 0.02);
}

TEST(Ipw, CategoricalCovariateAccepted) {
  Table t = MakeWorld(1000, true, 0.3);
  IpwOptions opts;
  opts.covariates = {"group"};
  EXPECT_TRUE(ComputeIpwWeights(t, "attr", opts).ok());
}

TEST(Ipw, Errors) {
  Table t = MakeWorld(100, false, 0.1);
  IpwOptions no_cov;
  EXPECT_FALSE(ComputeIpwWeights(t, "attr", no_cov).ok());
  IpwOptions opts;
  opts.covariates = {"outcome"};
  EXPECT_FALSE(ComputeIpwWeights(t, "ghost", opts).ok());
}

// ------------------------------------------------- IPW vs row-major oracle

// Independent reference for one IPW fit: the per-candidate, row-major
// form — a fresh n x p design of heap-allocated rows, string covariates
// coded by first appearance through a hash map, and a Newton loop over
// rows with the intercept as feature 0.
std::vector<double> NaiveIpwWeights(const Table& table,
                                    const std::string& attribute,
                                    const std::vector<std::string>& covariates,
                                    const IpwOptions& options) {
  const Column& attr = **table.ColumnByName(attribute);
  const size_t n = attr.size();
  std::vector<uint8_t> y(n);
  size_t observed = 0;
  for (size_t i = 0; i < n; ++i) {
    y[i] = attr.IsValid(i) ? 1 : 0;
    observed += y[i];
  }
  if (observed == 0) return std::vector<double>(n, 0.0);
  if (observed == n) return std::vector<double>(n, 1.0);
  const double rate = static_cast<double>(observed) / n;

  std::vector<std::vector<double>> x(n,
                                     std::vector<double>(covariates.size()));
  for (size_t c = 0; c < covariates.size(); ++c) {
    const Column& col = **table.ColumnByName(covariates[c]);
    std::vector<double> raw(n, 0.0);
    std::vector<uint8_t> ok(n, 0);
    std::map<std::string, double> first_seen;
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) continue;
      ok[i] = 1;
      if (col.type() == DataType::kString) {
        raw[i] = first_seen
                     .emplace(col.StringAt(i),
                              static_cast<double>(first_seen.size()))
                     .first->second;
      } else {
        raw[i] = col.NumericAt(i);
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
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) var += (raw[i] - mean) * (raw[i] - mean);
    }
    double sd = cnt > 1 ? std::sqrt(var / static_cast<double>(cnt - 1)) : 1.0;
    if (sd <= 0.0) sd = 1.0;
    for (size_t i = 0; i < n; ++i) x[i][c] = ok[i] ? (raw[i] - mean) / sd : 0.0;
  }

  const size_t p = covariates.size() + 1;
  auto feature = [&](size_t r, size_t j) { return j == 0 ? 1.0 : x[r][j - 1]; };
  auto sigmoid = [](double z) {
    if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
    const double e = std::exp(z);
    return e / (1.0 + e);
  };
  const LogisticOptions& lo = options.logistic;
  std::vector<double> beta(p, 0.0);
  const double base = std::clamp(static_cast<double>(observed) / n, 1e-6,
                                 1.0 - 1e-6);
  beta[0] = std::log(base / (1.0 - base));
  for (size_t iter = 0; iter < lo.max_iterations; ++iter) {
    std::vector<double> hess(p * p, 0.0), grad(p, 0.0);
    for (size_t r = 0; r < n; ++r) {
      double z = 0.0;
      for (size_t j = 0; j < p; ++j) z += beta[j] * feature(r, j);
      const double mu = sigmoid(z);
      const double w = std::max(mu * (1.0 - mu), 1e-10);
      const double resid = static_cast<double>(y[r]) - mu;
      for (size_t i = 0; i < p; ++i) {
        grad[i] += feature(r, i) * resid;
        for (size_t j = i; j < p; ++j) {
          hess[i * p + j] += w * feature(r, i) * feature(r, j);
        }
      }
    }
    for (size_t i = 0; i < p; ++i) {
      grad[i] -= lo.l2_penalty * beta[i];
      hess[i * p + i] += lo.l2_penalty;
      for (size_t j = 0; j < i; ++j) hess[i * p + j] = hess[j * p + i];
    }
    EXPECT_TRUE(CholeskySolve(hess, grad, p));
    double max_delta = 0.0;
    for (size_t j = 0; j < p; ++j) {
      beta[j] += grad[j];
      max_delta = std::max(max_delta, std::fabs(grad[j]));
    }
    if (max_delta < lo.tolerance) break;
  }
  std::vector<double> weights(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (!y[i]) continue;
    double z = beta[0];
    for (size_t j = 1; j < p; ++j) z += beta[j] * x[i][j - 1];
    const double prob =
        std::clamp(sigmoid(z), options.clip, 1.0 - options.clip);
    weights[i] = rate / prob;
  }
  return weights;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A query context in miniature: a string exposure with a null cell, an
// outcome with nulls, and attributes missing at random, by outcome, and
// blockwise by exposure value.
Table IpwOracleWorld(uint64_t seed, size_t n) {
  Rng rng(seed);
  TableBuilder b(Schema({{"city", DataType::kString},
                         {"delay", DataType::kDouble},
                         {"month", DataType::kInt64},
                         {"random", DataType::kDouble},
                         {"by_outcome", DataType::kDouble},
                         {"blockwise", DataType::kString}}));
  for (size_t i = 0; i < n; ++i) {
    const size_t city = rng.NextBelow(12);
    const double delay = static_cast<double>(city) + rng.NextGaussian(0, 2);
    auto cell = [&](bool missing, Value v) {
      return missing ? Value::Null() : std::move(v);
    };
    MESA_CHECK(
        b.AppendRow(
             {cell(i == 3, Value::String(Label("c", city))),
              cell(rng.NextBernoulli(0.05), Value::Double(delay)),
              Value::Int(rng.NextInt(1, 12)),
              cell(rng.NextBernoulli(0.3), Value::Double(rng.NextGaussian())),
              cell(delay > 6.0 && rng.NextBernoulli(0.7),
                   Value::Double(rng.NextGaussian())),
              cell(city % 3 == 0, Value::String(Label("s", city)))})
            .ok());
  }
  return *b.Finish();
}

TEST(IpwOracle, SharedDesignFitsMatchPerCandidateRowMajorFitsBitwise) {
  // One, two and three covariates: every Newton accumulator layout.
  const std::vector<std::vector<std::string>> covariate_sets = {
      {"city", "delay"}, {"delay"}, {"month", "city"},
      {"city", "delay", "month"}};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Table full = IpwOracleWorld(seed, 1500 + 250 * seed);
    std::vector<size_t> rows;
    for (size_t r = 0; r < full.num_rows(); ++r) {
      if (r % 4 != 1) rows.push_back(r);
    }
    const Table slice = full.TakeRows(rows);
    for (const Table* t : {&full, &slice}) {
      for (const auto& covariates : covariate_sets) {
        IpwOptions opts;
        opts.covariates = covariates;
        auto design = BuildIpwDesign(*t, covariates);
        ASSERT_TRUE(design.ok()) << design.status().ToString();
        for (const char* attr :
             {"random", "by_outcome", "blockwise", "month"}) {
          SCOPED_TRACE(std::string(attr) + " seed " + std::to_string(seed));
          const std::vector<double> want =
              NaiveIpwWeights(*t, attr, covariates, opts);
          auto per_call = ComputeIpwWeights(*t, attr, opts);
          ASSERT_TRUE(per_call.ok());
          EXPECT_TRUE(BitwiseEqual(want, per_call->weights));
          auto shared =
              ComputeIpwWeights(**t->ColumnByName(attr), *design, opts);
          ASSERT_TRUE(shared.ok());
          EXPECT_TRUE(BitwiseEqual(want, shared->weights));
        }
      }
    }
  }
}

TEST(IpwOracle, DesignMustCoverTheAttributeRows) {
  Table t = MakeWorld(200, true, 0.3);
  auto design = BuildIpwDesign(t, {"outcome"});
  ASSERT_TRUE(design.ok());
  Table half = t.TakeRows({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Column attr = half.column(1);
  attr.SetNull(0);  // ensure the slice is partially observed
  attr.AppendDouble(1.0);
  IpwOptions opts;
  EXPECT_FALSE(ComputeIpwWeights(attr, *design, opts).ok());
  EXPECT_FALSE(BuildIpwDesign(t, {}).ok());
  EXPECT_FALSE(BuildIpwDesign(t, {"ghost"}).ok());
}

// ------------------------------------------------------------- imputation

TEST(Imputation, MeanFillsNumeric) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (double v : {1.0, 3.0}) MESA_CHECK(b.AppendRow({Value::Double(v)}).ok());
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  auto n = ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_DOUBLE_EQ((*t.ColumnByName("x"))->DoubleAt(2), 2.0);
  EXPECT_EQ((*t.ColumnByName("x"))->null_count(), 0u);
}

TEST(Imputation, ModeFillsCategorical) {
  TableBuilder b(Schema({{"s", DataType::kString}}));
  for (const char* v : {"a", "b", "b"}) {
    MESA_CHECK(b.AppendRow({Value::String(v)}).ok());
  }
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  ASSERT_TRUE(ImputeColumn(&t, "s", ImputationStrategy::kMeanOrMode).ok());
  EXPECT_EQ((*t.ColumnByName("s"))->StringAt(3), "b");
}

TEST(Imputation, HotDeckDrawsObservedValues) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (double v : {1.0, 2.0}) MESA_CHECK(b.AppendRow({Value::Double(v)}).ok());
  for (int i = 0; i < 10; ++i) MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  Rng rng(5);
  ASSERT_TRUE(ImputeColumn(&t, "x", ImputationStrategy::kHotDeck, &rng).ok());
  const Column* c = *t.ColumnByName("x");
  for (size_t i = 0; i < c->size(); ++i) {
    double v = c->DoubleAt(i);
    EXPECT_TRUE(v == 1.0 || v == 2.0);
  }
}

TEST(Imputation, IntColumnGetsIntMean) {
  TableBuilder b(Schema({{"x", DataType::kInt64}}));
  for (int64_t v : {1, 4}) MESA_CHECK(b.AppendRow({Value::Int(v)}).ok());
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  ASSERT_TRUE(ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode).ok());
  EXPECT_EQ((*t.ColumnByName("x"))->IntAt(2), 2);  // trunc(2.5)
}

TEST(Imputation, NoNullsIsNoOp) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b.AppendRow({Value::Double(1)}).ok());
  Table t = *b.Finish();
  auto n = ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(Imputation, Errors) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  // Fully null column.
  EXPECT_FALSE(ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode).ok());
  // Hot deck without RNG.
  TableBuilder b2(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b2.AppendRow({Value::Double(1)}).ok());
  MESA_CHECK(b2.AppendRow({Value::Null()}).ok());
  Table t2 = *b2.Finish();
  EXPECT_FALSE(ImputeColumn(&t2, "x", ImputationStrategy::kHotDeck).ok());
}

}  // namespace
}  // namespace mesa
