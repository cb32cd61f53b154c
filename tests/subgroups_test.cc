#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/subgroups.h"
#include "label.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// World where conf explains the outcome everywhere EXCEPT inside region
// "R0", where a second latent (unexposed to the explanation) drives it.
// FindUnexplainedSubgroups must surface Region = 'R0'.
Table MakeRegionWorld(size_t rows = 12000, uint64_t seed = 31) {
  Rng rng(seed);
  const size_t kGroups = 60;
  std::vector<double> conf(kGroups), hidden(kGroups);
  std::vector<std::string> region(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    conf[g] = rng.NextGaussian();
    hidden[g] = rng.NextGaussian();
    region[g] = Label("R", g % 3);
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"region", DataType::kString},
                         {"other", DataType::kString},
                         {"conf", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    size_t g = rng.NextBelow(kGroups);
    // In R0 the outcome ignores conf entirely and follows the hidden
    // latent; elsewhere conf explains it.
    double outcome = region[g] == "R0"
                         ? 3.0 * hidden[g] + rng.NextGaussian(0, 0.3)
                         : 3.0 * conf[g] + rng.NextGaussian(0, 0.3);
    MESA_CHECK(b.AppendRow({Value::String(Label("g", g)),
                            Value::String(region[g]),
                            Value::String(i % 2 == 0 ? "even" : "odd"),
                            Value::Double(conf[g]), Value::Double(outcome)})
                   .ok());
  }
  return *b.Finish();
}

QuerySpec RegionQuery() {
  QuerySpec q;
  q.exposure = "group";
  q.outcome = "outcome";
  return q;
}

TEST(Subgroups, FindsThePlantedUnexplainedRegion) {
  Table t = MakeRegionWorld();
  SubgroupOptions opts;
  opts.top_k = 2;
  opts.threshold = 0.4;
  // Only the region attribute refines here: with "other" included the
  // larger (but also noisy) "other = even" half can legitimately rank
  // first by size; the planted-region recovery is what this test checks.
  opts.refinement_attributes = {"region"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  // The top group must be the R0 refinement.
  EXPECT_EQ(r->front().refinement.conditions().back().ToString(),
            "region = 'R0'");
  EXPECT_GT(r->front().score, opts.threshold);
  EXPECT_GT(r->front().size, 1000u);
}

TEST(Subgroups, ResultsOrderedBySizeAndNoAncestorDuplicates) {
  Table t = MakeRegionWorld();
  SubgroupOptions opts;
  opts.top_k = 5;
  opts.threshold = 0.2;
  opts.refinement_attributes = {"region", "other"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->size(); ++i) {
    // No reported refinement extends another reported one.
    for (size_t j = 0; j < r->size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE((*r)[i].refinement.Contains((*r)[j].refinement) &&
                   (*r)[i].refinement.size() >
                       (*r)[j].refinement.size());
    }
  }
}

TEST(Subgroups, HighThresholdYieldsNothing) {
  Table t = MakeRegionWorld(6000);
  SubgroupOptions opts;
  opts.top_k = 3;
  opts.threshold = 100.0;  // unreachable
  opts.refinement_attributes = {"region", "other"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(Subgroups, RefinementIncludesOriginalContext) {
  Table t = MakeRegionWorld();
  QuerySpec q = RegionQuery();
  q.context.Add({"other", CompareOp::kEq, Value::String("even"), {}});
  SubgroupOptions opts;
  opts.top_k = 1;
  opts.threshold = 0.4;
  opts.refinement_attributes = {"region"};
  auto r = FindUnexplainedSubgroups(t, q, {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  EXPECT_TRUE(r->front().refinement.Contains(q.context));
}

TEST(Subgroups, MinGroupSizeRespected) {
  Table t = MakeRegionWorld(3000);
  SubgroupOptions opts;
  opts.top_k = 10;
  opts.threshold = 0.0;  // everything qualifies...
  opts.min_group_size = 100000;  // ...but no group is big enough
  opts.refinement_attributes = {"region", "other"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(Subgroups, MaxDepthLimitsRefinementLength) {
  Table t = MakeRegionWorld();
  SubgroupOptions opts;
  opts.top_k = 10;
  opts.threshold = 0.15;
  opts.max_depth = 1;
  opts.refinement_attributes = {"region", "other"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  for (const auto& g : *r) {
    EXPECT_LE(g.refinement.size(), 1u);
  }
}

TEST(Subgroups, ExposureAndOutcomeNeverRefinementAtoms) {
  Table t = MakeRegionWorld(3000);
  SubgroupOptions opts;
  opts.top_k = 3;
  opts.threshold = 0.1;
  opts.refinement_attributes = {"group", "outcome", "region"};
  auto r = FindUnexplainedSubgroups(t, RegionQuery(), {"conf"}, opts);
  ASSERT_TRUE(r.ok());
  for (const auto& g : *r) {
    for (const auto& cond : g.refinement.conditions()) {
      EXPECT_NE(cond.column, "group");
      EXPECT_NE(cond.column, "outcome");
    }
  }
}

TEST(Subgroups, BadQueryErrors) {
  Table t = MakeRegionWorld(1000);
  QuerySpec q;
  q.exposure = "ghost";
  q.outcome = "outcome";
  SubgroupOptions opts;
  EXPECT_FALSE(FindUnexplainedSubgroups(t, q, {"conf"}, opts).ok());
}

}  // namespace
}  // namespace mesa
