#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/baselines/brute_force.h"
#include "core/baselines/hypdb.h"
#include "core/baselines/lr_explainer.h"
#include "core/baselines/top_k.h"
#include "core/mcimr.h"
#include "core/pruning.h"
#include "label.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// Same structure as core_test's world: 100 groups, outcome = 3u + 2v +
// indiv, with a redundant twin of u and a per-group noise attribute.
struct World {
  Table table;
  QuerySpec query;
};

World MakeWorld(size_t rows = 12000, uint64_t seed = 177) {
  Rng rng(seed);
  const size_t kGroups = 100;
  std::vector<double> u(kGroups), v(kGroups), noise(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    u[g] = rng.NextGaussian();
    v[g] = rng.NextGaussian();
    noise[g] = rng.NextGaussian();
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"outcome", DataType::kDouble},
                         {"conf_u", DataType::kDouble},
                         {"conf_u_twin", DataType::kDouble},
                         {"conf_v", DataType::kDouble},
                         {"noise", DataType::kDouble},
                         {"indiv", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    size_t g = rng.NextBelow(kGroups);
    double indiv = rng.NextGaussian();
    double outcome =
        3.0 * u[g] + 2.0 * v[g] + indiv + rng.NextGaussian(0, 0.4);
    MESA_CHECK(b.AppendRow({Value::String(Label("g", g)),
                            Value::Double(outcome), Value::Double(u[g]),
                            Value::Double(u[g] + 0.01 * noise[g]),
                            Value::Double(v[g]), Value::Double(noise[g]),
                            Value::Double(indiv)})
                   .ok());
  }
  World w;
  w.table = *b.Finish();
  w.query.exposure = "group";
  w.query.outcome = "outcome";
  return w;
}

std::vector<std::string> Candidates() {
  return {"conf_u", "conf_u_twin", "conf_v", "noise", "indiv"};
}

struct Prepared {
  std::shared_ptr<QueryAnalysis> qa;
  std::vector<size_t> kept;
};

Prepared PrepareWorld(const World& w) {
  auto qa = QueryAnalysis::Prepare(w.table, w.query, Candidates());
  MESA_CHECK(qa.ok());
  Prepared p;
  p.qa = std::make_shared<QueryAnalysis>(std::move(*qa));
  p.kept = OnlinePrune(*p.qa).kept_indices;
  return p;
}

// ------------------------------------------------------------- BruteForce

TEST(BruteForce, MatchesOrBeatsMcimrObjective) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  auto bf = RunBruteForce(*p.qa, p.kept);
  ASSERT_TRUE(bf.ok());
  Explanation greedy = RunMcimr(*p.qa, p.kept);
  EXPECT_LE(bf->Objective(), greedy.Objective() + 1e-9);
  EXPECT_FALSE(bf->attribute_names.empty());
}

TEST(BruteForce, FindsConfounderPair) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  BruteForceOptions opts;
  opts.max_size = 2;
  auto bf = RunBruteForce(*p.qa, p.kept, opts);
  ASSERT_TRUE(bf.ok());
  bool has_u = false, has_v = false;
  for (const auto& n : bf->attribute_names) {
    has_u |= n == "conf_u" || n == "conf_u_twin";
    has_v |= n == "conf_v";
  }
  EXPECT_TRUE(has_u) << bf->ToString();
  EXPECT_TRUE(has_v) << bf->ToString();
}

TEST(BruteForce, RespectsSubsetBudget) {
  World w = MakeWorld(2000);
  Prepared p = PrepareWorld(w);
  BruteForceOptions opts;
  opts.max_subsets = 1;
  EXPECT_EQ(RunBruteForce(*p.qa, p.kept, opts).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BruteForce, EmptyCandidateSet) {
  World w = MakeWorld(2000);
  Prepared p = PrepareWorld(w);
  auto bf = RunBruteForce(*p.qa, {});
  ASSERT_TRUE(bf.ok());
  EXPECT_TRUE(bf->attribute_names.empty());
  EXPECT_DOUBLE_EQ(bf->final_cmi, p.qa->BaseCmi());
}

// ------------------------------------------------------------------ TopK

TEST(TopK, RanksByIndividualCmi) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  Explanation ex = RunTopK(*p.qa, p.kept, 2);
  ASSERT_EQ(ex.attribute_names.size(), 2u);
  // The two individually best attributes are conf_u and its twin: Top-K's
  // signature redundancy failure (the paper's Year Low F / Year Avg F).
  auto is_u = [](const std::string& s) {
    return s == "conf_u" || s == "conf_u_twin";
  };
  EXPECT_TRUE(is_u(ex.attribute_names[0]));
  EXPECT_TRUE(is_u(ex.attribute_names[1]));
}

TEST(TopK, TruncatesToAvailable) {
  World w = MakeWorld(2000);
  Prepared p = PrepareWorld(w);
  Explanation ex = RunTopK(*p.qa, p.kept, 50);
  EXPECT_EQ(ex.attribute_names.size(), p.kept.size());
  EXPECT_TRUE(RunTopK(*p.qa, {}, 3).attribute_names.empty());
}

// -------------------------------------------------------------------- LR

TEST(LrExplainer, PicksOutcomeCorrelates) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  auto lr = RunLrExplainer(*p.qa, p.kept);
  ASSERT_TRUE(lr.ok());
  ASSERT_FALSE(lr->attribute_names.empty());
  // LR ranks by association with O: indiv is a direct cause of O and
  // should be among the picks even though it explains nothing about the
  // group correlation — the paper's core criticism of this baseline.
  bool has_indiv = false;
  for (const auto& n : lr->attribute_names) has_indiv |= n == "indiv";
  EXPECT_TRUE(has_indiv) << lr->ToString();
}

TEST(LrExplainer, PValueGateCanEmptyTheExplanation) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  LrExplainerOptions opts;
  opts.p_value_threshold = -1.0;  // nothing clears the bar
  auto lr = RunLrExplainer(*p.qa, p.kept, opts);
  ASSERT_TRUE(lr.ok());
  EXPECT_TRUE(lr->attribute_names.empty());
  EXPECT_DOUBLE_EQ(lr->final_cmi, lr->base_cmi);
}

TEST(LrExplainer, MaxSizeRespected) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  LrExplainerOptions opts;
  opts.max_size = 1;
  auto lr = RunLrExplainer(*p.qa, p.kept, opts);
  ASSERT_TRUE(lr.ok());
  EXPECT_LE(lr->attribute_names.size(), 1u);
}

// ----------------------------------------------------------------- HypDB

TEST(HypDb, FindsConfounders) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  auto hy = RunHypDb(*p.qa, p.kept);
  ASSERT_TRUE(hy.ok());
  ASSERT_FALSE(hy->attribute_names.empty());
  bool has_conf = false;
  for (const auto& n : hy->attribute_names) {
    has_conf |= n == "conf_u" || n == "conf_u_twin" || n == "conf_v";
  }
  EXPECT_TRUE(has_conf) << hy->ToString();
  EXPECT_LT(hy->final_cmi, hy->base_cmi);
}

TEST(HypDb, AttributeCapSamples) {
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  HypDbOptions opts;
  opts.max_attributes = 2;
  auto hy = RunHypDb(*p.qa, p.kept, opts);
  ASSERT_TRUE(hy.ok());
  EXPECT_LE(hy->attribute_names.size(), 2u);
}

TEST(HypDb, NoConfoundersYieldsEmpty) {
  // Outcome is pure noise: no candidate passes the confounder criteria.
  Rng rng(9);
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"o", DataType::kDouble},
                         {"attr", DataType::kDouble}}));
  for (int i = 0; i < 3000; ++i) {
    MESA_CHECK(b.AppendRow({Value::String(Label("g", i % 8)),
                            Value::Double(rng.NextGaussian()),
                            Value::Double(rng.NextGaussian())})
                   .ok());
  }
  Table t = *b.Finish();
  QuerySpec q;
  q.exposure = "g";
  q.outcome = "o";
  auto qa = QueryAnalysis::Prepare(t, q, {"attr"});
  ASSERT_TRUE(qa.ok());
  auto hy = RunHypDb(*qa, {0});
  ASSERT_TRUE(hy.ok());
  EXPECT_TRUE(hy->attribute_names.empty());
}

// -------------------------------------------------- Quality ordering

TEST(Baselines, ExplainabilityOrderingMatchesPaper) {
  // Fig. 2's shape: MESA's explainability score is close to Brute-Force's
  // and at least as good as Top-K's.
  World w = MakeWorld();
  Prepared p = PrepareWorld(w);
  auto bf = RunBruteForce(*p.qa, p.kept);
  ASSERT_TRUE(bf.ok());
  Explanation mesa_ex = RunMcimr(*p.qa, p.kept);
  Explanation topk = RunTopK(*p.qa, p.kept, mesa_ex.attribute_names.size());
  EXPECT_LE(bf->final_cmi, mesa_ex.final_cmi + 1e-9);
  EXPECT_LE(mesa_ex.final_cmi, topk.final_cmi + 1e-9);
}

}  // namespace
}  // namespace mesa
