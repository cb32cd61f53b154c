#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "label.h"
#include "stats/discretizer.h"
#include "stats/distributions.h"
#include "stats/logistic.h"
#include "stats/ols.h"
#include "table/csv.h"

namespace mesa {
namespace {

// ---------------------------------------------------------- distributions

TEST(Distributions, LogGammaMatchesFactorials) {
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(0.5), std::log(std::sqrt(M_PI)), 1e-10);
}

TEST(Distributions, NormalCdf) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(Distributions, IncompleteBetaBounds) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
  // I_x(1,1) = x (uniform).
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-10);
}

TEST(Distributions, StudentTKnownQuantiles) {
  // t = 2.228 with 10 df is the 97.5th percentile.
  EXPECT_NEAR(StudentTCdf(2.228, 10), 0.975, 5e-4);
  EXPECT_NEAR(StudentTPValueTwoSided(2.228, 10), 0.05, 1e-3);
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  // Large df approximates the normal.
  EXPECT_NEAR(StudentTCdf(1.96, 100000), NormalCdf(1.96), 1e-4);
}

TEST(Distributions, ChiSquaredKnownValues) {
  // P(X >= 3.841 | df=1) = 0.05.
  EXPECT_NEAR(ChiSquaredSf(3.841, 1), 0.05, 5e-4);
  EXPECT_NEAR(ChiSquaredSf(5.991, 2), 0.05, 5e-4);
  EXPECT_DOUBLE_EQ(ChiSquaredSf(0.0, 3), 1.0);
}

TEST(Distributions, GammaPMonotone) {
  double prev = 0.0;
  for (double x = 0.1; x < 10.0; x += 0.5) {
    double p = RegularizedGammaP(2.5, x);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

// ----------------------------------------------------------- discretizer

TEST(Discretizer, CategoricalStrings) {
  // Second column keeps the all-empty record from reading as a blank line.
  Table t = *ReadCsvString("c,k\nb,1\na,1\nb,1\n,1\n");
  auto d = DiscretizeColumn(t, "c");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cardinality, 2);
  // Sorted order: a=0, b=1.
  EXPECT_EQ(d->codes[0], 1);
  EXPECT_EQ(d->codes[1], 0);
  EXPECT_EQ(d->codes[2], 1);
  EXPECT_EQ(d->codes[3], -1);  // null
  EXPECT_EQ(d->labels[0], "a");
}

TEST(Discretizer, LowCardinalityNumericIsCategorical) {
  Table t = *ReadCsvString("x\n1\n2\n1\n2\n3\n");
  DiscretizerOptions opts;
  opts.categorical_threshold = 10;
  auto d = DiscretizeColumn(t, "x", opts);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cardinality, 3);
}

TEST(Discretizer, EqualWidthBins) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kEqualWidth;
  opts.num_bins = 4;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_EQ(d.cardinality, 4);
  EXPECT_EQ(d.codes[0], 0);
  EXPECT_EQ(d.codes[99], 3);
  EXPECT_EQ(d.codes[50], 2);
}

TEST(Discretizer, EqualFrequencyBinsBalanced) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.NextGaussian());
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kEqualFrequency;
  opts.num_bins = 8;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  ASSERT_EQ(d.cardinality, 8);
  std::vector<int> counts(8, 0);
  for (int32_t c : d.codes) ++counts[c];
  for (int c : counts) EXPECT_NEAR(c, 1250, 200);
}

TEST(Discretizer, SkewedDataDoesNotCrash) {
  // Heavy duplication of one value: equal-frequency cut points collapse.
  std::vector<double> v(1000, 5.0);
  for (int i = 0; i < 50; ++i) v.push_back(100.0 + i);
  DiscretizerOptions opts;
  opts.num_bins = 8;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_GE(d.cardinality, 1);
  for (int32_t c : d.codes) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, d.cardinality);
  }
}

TEST(Discretizer, ConstantColumn) {
  std::vector<double> v(100, 7.0);
  DiscretizerOptions opts;
  opts.categorical_threshold = 0;  // force numeric path
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_EQ(d.cardinality, 1);
}

TEST(Discretizer, NullsStayNegative) {
  Table t = *ReadCsvString("x,k\n1.5,1\n,1\n2.5,1\n");
  auto d = DiscretizeColumn(t, "x");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->codes[1], -1);
  EXPECT_GE(d->codes[0], 0);
}

TEST(Discretizer, MissingColumnFails) {
  Table t = *ReadCsvString("x\n1\n");
  EXPECT_FALSE(DiscretizeColumn(t, "nope").ok());
}

// ------------------------------------------- discretizer vs naive oracle

// Independent reference discretizer: per-row Values through std::map /
// std::set and a full sort — the textbook form of the specification the
// typed kernels implement. Numeric cells (ints included) are read as
// doubles; NaN cells count as missing; binning reads -0.0 as 0.0.
Discretized NaiveDiscretize(const Column& col,
                            const DiscretizerOptions& options) {
  const size_t n = col.size();
  std::vector<Value> cells(n);
  for (size_t r = 0; r < n; ++r) {
    Value v = col.GetValue(r);
    if (v.is_int()) v = Value::Double(static_cast<double>(v.int_value()));
    if (v.is_double() && std::isnan(v.double_value())) v = Value::Null();
    cells[r] = v;
  }
  Discretized out;
  auto label = [](const Value& v) {
    if (!v.is_double()) return v.ToString();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
    return std::string(buf);
  };
  std::map<Value, int32_t> distinct;  // the first occurrence is the key
  for (const Value& v : cells) {
    if (!v.is_null()) distinct.emplace(v, 0);
  }
  const bool numeric = col.type() == DataType::kDouble ||
                       col.type() == DataType::kInt64;
  if (!numeric || distinct.size() <= options.categorical_threshold) {
    for (auto& [v, code] : distinct) {
      code = static_cast<int32_t>(out.labels.size());
      out.labels.push_back(label(v));
    }
    out.cardinality = static_cast<int32_t>(distinct.size());
    for (const Value& v : cells) {
      out.codes.push_back(v.is_null() ? -1 : distinct.at(v));
    }
    return out;
  }
  std::vector<double> present;
  for (const Value& v : cells) {
    if (!v.is_null()) present.push_back(v.double_value() + 0.0);
  }
  std::sort(present.begin(), present.end());
  auto range = [](double lo, double hi) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "[%.4g, %.4g)", lo, hi);
    return std::string(buf);
  };
  std::vector<double> edges;
  size_t k = std::max<size_t>(1, options.num_bins);
  if (options.strategy == BinningStrategy::kEqualWidth) {
    const double mn = present.front(), mx = present.back();
    const double width = (mx - mn) / static_cast<double>(k);
    for (size_t i = 1; i < k; ++i) edges.push_back(mn + width * i);
  } else {
    std::set<double> cuts;
    for (size_t i = 1; i < k; ++i) cuts.insert(present[i * present.size() / k]);
    cuts.erase(present.front());
    edges.assign(cuts.begin(), cuts.end());
    k = edges.size() + 1;
  }
  double lo = present.front();
  for (size_t i = 0; i < k; ++i) {
    const double hi = i + 1 < k ? edges[i] : present.back();
    out.labels.push_back(range(lo, hi));
    lo = hi;
  }
  out.cardinality = static_cast<int32_t>(k);
  for (const Value& v : cells) {
    if (v.is_null()) {
      out.codes.push_back(-1);
      continue;
    }
    auto it = std::upper_bound(edges.begin(), edges.end(), v.double_value());
    out.codes.push_back(static_cast<int32_t>(it - edges.begin()));
  }
  return out;
}

void ExpectSameDiscretization(const Discretized& want, const Discretized& got,
                              const std::string& what) {
  EXPECT_EQ(want.cardinality, got.cardinality) << what;
  EXPECT_EQ(want.labels, got.labels) << what;
  EXPECT_EQ(want.codes, got.codes) << what;
}

// Seeded columns covering the kernels' edge cases: nulls, heavy ties at
// cut points, -0.0 beside 0.0, NaN cells, ints, bools, and strings with
// an empty value.
Table DiscretizerOracleTable(uint64_t seed, size_t n) {
  Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> tied = {-3.5, -1.0, -0.0, 0.0,  0.25, 1.0,  2.0,
                                    2.0,  4.5,  7.0,  9.0,  12.0, 15.0, 20.0};
  const double few_values[] = {-0.0, 0.0, 1.5, 3.0, nan};
  const char* strings[] = {"", "b", "B", "a b", "O'Neil", "zeta", "Alpha"};
  Column cont(DataType::kDouble), ties(DataType::kDouble),
      zeros(DataType::kDouble), nans(DataType::kDouble),
      few(DataType::kDouble), ints(DataType::kInt64),
      few_ints(DataType::kInt64), bools(DataType::kBool),
      strs(DataType::kString);
  for (size_t r = 0; r < n; ++r) {
    const bool null = rng.NextBernoulli(0.2);
    if (null) {
      cont.AppendNull();
      ties.AppendNull();
      few_ints.AppendNull();
      bools.AppendNull();
      strs.AppendNull();
    } else {
      cont.AppendDouble(rng.NextGaussian(10.0, 5.0));
      ties.AppendDouble(tied[rng.NextBelow(tied.size())]);
      few_ints.AppendInt(rng.NextInt(1, 7));
      bools.AppendBool(rng.NextBernoulli(0.3));
      strs.AppendString(strings[rng.NextBelow(7)]);
    }
    // Mostly zeros of both signs, so cut points land on zero.
    zeros.AppendDouble(rng.NextBernoulli(0.6)
                           ? (rng.NextBernoulli(0.5) ? -0.0 : 0.0)
                           : rng.NextUniform(-5.0, 5.0));
    nans.AppendDouble(rng.NextBernoulli(0.1) ? nan
                                             : rng.NextUniform(0.0, 100.0));
    // Low cardinality with both zero spellings: the categorical path.
    if (rng.NextBernoulli(0.1)) {
      few.AppendNull();
    } else {
      few.AppendDouble(few_values[rng.NextBelow(5)]);
    }
    ints.AppendInt(rng.NextInt(-50, 50));
  }
  Schema schema;
  std::vector<Column> cols;
  for (auto* entry : {&cont, &ties, &zeros, &nans, &few, &ints, &few_ints,
                      &bools, &strs}) {
    EXPECT_TRUE(
        schema.AddField({Label("c", cols.size()), entry->type()})
            .ok());
    cols.push_back(std::move(*entry));
  }
  return *Table::Make(std::move(schema), std::move(cols));
}

TEST(DiscretizerOracle, TypedKernelsMatchNaiveReferenceBitwise) {
  std::vector<DiscretizerOptions> option_sets;
  for (BinningStrategy strategy :
       {BinningStrategy::kEqualFrequency, BinningStrategy::kEqualWidth}) {
    for (size_t bins : {2u, 6u, 9u}) {
      for (size_t threshold : {0u, 3u, 10u}) {
        DiscretizerOptions o;
        o.strategy = strategy;
        o.num_bins = bins;
        o.categorical_threshold = threshold;
        option_sets.push_back(o);
      }
    }
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Table full = DiscretizerOracleTable(seed, 300 + 97 * seed);
    // A context slice: its string dictionary keeps entries no taken row
    // uses.
    std::vector<size_t> rows;
    Rng pick(seed * 31);
    for (size_t r = 0; r < full.num_rows(); ++r) {
      if (pick.NextBernoulli(0.35)) rows.push_back(r);
    }
    const Table slice = full.TakeRows(rows);
    for (const Table* t : {&full, &slice}) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const std::string& name = t->schema().field(c).name;
        for (const DiscretizerOptions& o : option_sets) {
          ClearDiscretizerCache();
          auto got = DiscretizeColumn(*t, name, o);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameDiscretization(
              NaiveDiscretize(t->column(c), o), *got,
              name + " seed " + std::to_string(seed) + " rows " +
                  std::to_string(t->num_rows()) + " bins " +
                  std::to_string(o.num_bins) + " threshold " +
                  std::to_string(o.categorical_threshold));
        }
      }
    }
  }
}

TEST(DiscretizerOracle, VectorPathMatchesColumnPathAndOracle) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.NextBernoulli(0.3) ? -0.0 : rng.NextGaussian());
  }
  Table t = *Table::Make(Schema({{"v", DataType::kDouble}}),
                         {Column::FromDoubles(values)});
  ClearDiscretizerCache();
  ExpectSameDiscretization(*DiscretizeColumn(t, "v"), DiscretizeVector(values),
                           "vector");
  ExpectSameDiscretization(NaiveDiscretize(t.column(0), {}),
                           DiscretizeVector(values), "vector vs oracle");
}

// ------------------------------------------------------------------- OLS

TEST(Ols, RecoversCoefficients) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    double a = rng.NextGaussian(), b = rng.NextGaussian();
    x.push_back({a, b});
    y.push_back(2.0 + 3.0 * a - 1.5 * b + rng.NextGaussian(0, 0.1));
  }
  auto fit = FitOls(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->coefficients[0], 2.0, 0.05);
  EXPECT_NEAR(fit->coefficients[1], 3.0, 0.05);
  EXPECT_NEAR(fit->coefficients[2], -1.5, 0.05);
  EXPECT_GT(fit->r_squared, 0.99);
  EXPECT_LT(fit->p_values[1], 1e-6);
  EXPECT_LT(fit->p_values[2], 1e-6);
}

TEST(Ols, IrrelevantFeatureHasHighPValue) {
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.NextGaussian(), junk = rng.NextGaussian();
    x.push_back({a, junk});
    y.push_back(a + rng.NextGaussian());
  }
  auto fit = FitOls(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->p_values[2], 0.01);
}

TEST(Ols, Errors) {
  EXPECT_FALSE(FitOls({}, {}).ok());
  EXPECT_FALSE(FitOls({{1.0}, {2.0}}, {1.0}).ok());       // length mismatch
  EXPECT_FALSE(FitOls({{1.0}, {2.0}}, {1.0, 2.0}).ok());  // n <= p
}

TEST(Ols, CholeskySolveKnownSystem) {
  // A = [[4,2],[2,3]], rhs = [10, 9] -> x = [1.5, 2].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> rhs = {10, 9};
  ASSERT_TRUE(CholeskySolve(a, rhs, 2));
  EXPECT_NEAR(rhs[0], 1.5, 1e-12);
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
}

TEST(Ols, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> rhs = {1, 1};
  EXPECT_FALSE(CholeskySolve(a, rhs, 2));
}

// -------------------------------------------------------------- logistic

TEST(Logistic, RecoversSeparation) {
  Rng rng(17);
  std::vector<double> a_col;
  std::vector<uint8_t> y;
  for (int i = 0; i < 2000; ++i) {
    double a = rng.NextGaussian();
    double p = 1.0 / (1.0 + std::exp(-(0.5 + 2.0 * a)));
    a_col.push_back(a);
    y.push_back(rng.NextBernoulli(p) ? 1 : 0);
  }
  auto model = FitLogistic({a_col}, y);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->converged());
  EXPECT_NEAR(model->coefficients()[0], 0.5, 0.2);
  EXPECT_NEAR(model->coefficients()[1], 2.0, 0.3);
}

TEST(Logistic, PredictedProbabilitiesCalibrated) {
  Rng rng(19);
  std::vector<double> a_col;
  std::vector<uint8_t> y;
  for (int i = 0; i < 4000; ++i) {
    double a = rng.NextUniform(-2, 2);
    double p = 1.0 / (1.0 + std::exp(-a));
    a_col.push_back(a);
    y.push_back(rng.NextBernoulli(p) ? 1 : 0);
  }
  auto model = FitLogistic({a_col}, y);
  ASSERT_TRUE(model.ok());
  const std::vector<std::vector<double>> probes = {{0.0, 2.0, -2.0}};
  EXPECT_NEAR(model->PredictProbability(probes, 0), 0.5, 0.05);
  EXPECT_GT(model->PredictProbability(probes, 1), 0.8);
  EXPECT_LT(model->PredictProbability(probes, 2), 0.2);
}

TEST(Logistic, ImbalancedLabels) {
  Rng rng(23);
  std::vector<double> a_col;
  std::vector<uint8_t> y;
  for (int i = 0; i < 3000; ++i) {
    a_col.push_back(rng.NextGaussian());
    y.push_back(rng.NextBernoulli(0.03) ? 1 : 0);
  }
  auto model = FitLogistic({a_col}, y);
  ASSERT_TRUE(model.ok());
  // Intercept near log(0.03/0.97) ~ -3.48; slope near 0.
  EXPECT_NEAR(model->coefficients()[0], -3.48, 0.4);
  EXPECT_NEAR(model->coefficients()[1], 0.0, 0.3);
}

TEST(Logistic, SeparableDataStaysFinite) {
  // Perfectly separable: the ridge must keep coefficients bounded.
  std::vector<double> a_col;
  std::vector<uint8_t> y;
  for (int i = 0; i < 100; ++i) {
    double a = i < 50 ? -1.0 - i * 0.01 : 1.0 + i * 0.01;
    a_col.push_back(a);
    y.push_back(i < 50 ? 0 : 1);
  }
  auto model = FitLogistic({a_col}, y);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(std::isfinite(model->coefficients()[1]));
}

TEST(Logistic, Errors) {
  EXPECT_FALSE(FitLogistic({}, {}).ok());
  EXPECT_FALSE(FitLogistic({{1.0}}, {1, 0}).ok());
}

}  // namespace
}  // namespace mesa
