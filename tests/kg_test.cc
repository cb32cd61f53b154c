#include <gtest/gtest.h>

#include "common/logging.h"
#include "kg/entity_linker.h"
#include "kg/extractor.h"
#include "kg/synthetic_kg.h"
#include "kg/triple_store.h"
#include "label.h"
#include "table/csv.h"

namespace mesa {
namespace {

// ------------------------------------------------------------ TripleStore

TEST(TripleStore, AddEntitiesAndTriples) {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityId fr = *kg.AddEntity("France", "Country");
  ASSERT_TRUE(kg.AddLiteral(de, "hdi", Value::Double(0.94)).ok());
  ASSERT_TRUE(kg.AddLiteral(de, "gini", Value::Double(31.0)).ok());
  ASSERT_TRUE(kg.AddEdge(de, "neighbor", fr).ok());
  EXPECT_EQ(kg.num_entities(), 2u);
  EXPECT_EQ(kg.num_triples(), 3u);
  EXPECT_EQ(kg.num_predicates(), 3u);
  auto props = kg.PropertiesOf(de);
  EXPECT_EQ(props.size(), 3u);
  EXPECT_TRUE(kg.PropertiesOf(fr).empty());
}

TEST(TripleStore, RejectsDuplicateLabels) {
  TripleStore kg;
  ASSERT_TRUE(kg.AddEntity("X", "T").ok());
  EXPECT_FALSE(kg.AddEntity("X", "T").ok());
}

TEST(TripleStore, RejectsBadIds) {
  TripleStore kg;
  EXPECT_FALSE(kg.AddLiteral(5, "p", Value::Int(1)).ok());
  EXPECT_FALSE(kg.AddAlias(5, "a").ok());
}

TEST(TripleStore, PredicateInterning) {
  TripleStore kg;
  PredicateId a = kg.InternPredicate("hdi");
  PredicateId b = kg.InternPredicate("hdi");
  EXPECT_EQ(a, b);
  EXPECT_EQ(kg.predicate_name(a), "hdi");
}

TEST(TripleStore, LabelAndAliasLookup) {
  TripleStore kg;
  EntityId ru = *kg.AddEntity("Russia", "Country");
  ASSERT_TRUE(kg.AddAlias(ru, "Russian Federation").ok());
  EXPECT_EQ(*kg.FindByLabel("Russia"), ru);
  EXPECT_FALSE(kg.FindByLabel("Russian Federation").has_value());
  auto by_alias = kg.FindByAlias("Russian Federation");
  ASSERT_EQ(by_alias.size(), 1u);
  EXPECT_EQ(by_alias[0], ru);
  // Normalised lookup matches case / punctuation variants.
  auto norm = kg.FindByNormalized("russian federation");
  ASSERT_EQ(norm.size(), 1u);
}

TEST(TripleStore, EntitiesAndPredicatesOfType) {
  TripleStore kg;
  EntityId a = *kg.AddEntity("A", "Country");
  EntityId b = *kg.AddEntity("B", "City");
  ASSERT_TRUE(kg.AddLiteral(a, "hdi", Value::Double(1)).ok());
  ASSERT_TRUE(kg.AddLiteral(b, "pop", Value::Double(2)).ok());
  EXPECT_EQ(kg.EntitiesOfType("Country").size(), 1u);
  auto preds = kg.PredicatesOfType("Country");
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0], "hdi");
}

// ------------------------------------------------------------ EntityLinker

TEST(EntityLinker, ExactLabelWins) {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityLinker linker(&kg);
  auto r = linker.Link("Germany");
  EXPECT_EQ(r.outcome, LinkOutcome::kExactLabel);
  EXPECT_EQ(*r.entity, de);
}

TEST(EntityLinker, AliasResolution) {
  TripleStore kg;
  EntityId ru = *kg.AddEntity("Russia", "Country");
  ASSERT_TRUE(kg.AddAlias(ru, "Russian Federation").ok());
  EntityLinker linker(&kg);
  auto r = linker.Link("Russian Federation");
  EXPECT_EQ(r.outcome, LinkOutcome::kAliasMatch);
  EXPECT_EQ(*r.entity, ru);
}

TEST(EntityLinker, AmbiguousAliasFails) {
  // The paper's Ronaldo example: two entities share a surface form.
  TripleStore kg;
  EntityId a = *kg.AddEntity("Ronaldo Nazario", "Person");
  EntityId b = *kg.AddEntity("Cristiano Ronaldo", "Person");
  ASSERT_TRUE(kg.AddAlias(a, "Ronaldo").ok());
  ASSERT_TRUE(kg.AddAlias(b, "Ronaldo").ok());
  EntityLinker linker(&kg);
  auto r = linker.Link("Ronaldo");
  EXPECT_EQ(r.outcome, LinkOutcome::kAmbiguous);
  EXPECT_FALSE(r.linked());
}

TEST(EntityLinker, FuzzyMatchSmallTypo) {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityLinker linker(&kg);
  auto r = linker.Link("Germny");
  EXPECT_EQ(r.outcome, LinkOutcome::kFuzzyMatch);
  EXPECT_EQ(*r.entity, de);
}

TEST(EntityLinker, FuzzyDisabled) {
  TripleStore kg;
  ASSERT_TRUE(kg.AddEntity("Germany", "Country").ok());
  EntityLinkerOptions opts;
  opts.enable_fuzzy = false;
  EntityLinker linker(&kg, opts);
  EXPECT_EQ(linker.Link("Germny").outcome, LinkOutcome::kNotFound);
}

TEST(EntityLinker, TypeFilterExcludes) {
  TripleStore kg;
  EntityId city = *kg.AddEntity("Mexico", "City");
  (void)city;
  EntityLinkerOptions opts;
  opts.type_filter = "Country";
  EntityLinker linker(&kg, opts);
  EXPECT_FALSE(linker.Link("Mexico").linked());
}

TEST(EntityLinker, NotFoundForDistantStrings) {
  TripleStore kg;
  ASSERT_TRUE(kg.AddEntity("Germany", "Country").ok());
  EntityLinker linker(&kg);
  EXPECT_EQ(linker.Link("Oceania Republic").outcome, LinkOutcome::kNotFound);
}

// -------------------------------------------------------------- Extractor

TripleStore CountryKg() {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityId fr = *kg.AddEntity("France", "Country");
  EntityId us = *kg.AddEntity("United States", "Country");
  MESA_CHECK(kg.AddAlias(us, "USA").ok());
  MESA_CHECK(kg.AddLiteral(de, "hdi", Value::Double(0.94)).ok());
  MESA_CHECK(kg.AddLiteral(fr, "hdi", Value::Double(0.90)).ok());
  MESA_CHECK(kg.AddLiteral(us, "hdi", Value::Double(0.92)).ok());
  MESA_CHECK(kg.AddLiteral(de, "gini", Value::Double(31)).ok());
  // fr has no gini: missing value downstream.
  MESA_CHECK(kg.AddLiteral(us, "gini", Value::Double(41)).ok());
  MESA_CHECK(kg.AddLiteral(de, "capital_name", Value::String("Berlin")).ok());
  // 2-hop: leader entity with literal properties.
  EntityId leader = *kg.AddEntity("Chancellor", "Person");
  MESA_CHECK(kg.AddEdge(de, "leader", leader).ok());
  MESA_CHECK(kg.AddLiteral(leader, "age", Value::Double(65)).ok());
  // One-to-many numeric: two ethnic group sizes on us.
  MESA_CHECK(kg.AddLiteral(us, "group_size", Value::Double(10)).ok());
  MESA_CHECK(kg.AddLiteral(us, "group_size", Value::Double(30)).ok());
  return kg;
}

Table BaseTable() {
  return *ReadCsvString(
      "Country,Salary\nGermany,100\nGermany,120\nFrance,90\nUSA,200\n"
      "Atlantis,50\n");
}

TEST(Extractor, OneHopUniversalRelation) {
  TripleStore kg = CountryKg();
  Table base = BaseTable();
  ExtractionStats stats;
  auto e = ExtractAttributes(base, "Country", kg, {}, &stats);
  ASSERT_TRUE(e.ok());
  // One row per distinct key value (Atlantis, France, Germany, USA).
  EXPECT_EQ(e->num_rows(), 4u);
  EXPECT_TRUE(e->schema().Contains("hdi"));
  EXPECT_TRUE(e->schema().Contains("gini"));
  EXPECT_TRUE(e->schema().Contains("capital_name"));
  // Hop-1 only: the leader edge contributes its label but not its props.
  EXPECT_TRUE(e->schema().Contains("leader"));
  EXPECT_FALSE(e->schema().Contains("leader_age"));
  EXPECT_EQ(stats.values_total, 4u);
  EXPECT_EQ(stats.values_linked, 3u);  // Atlantis unlinked
  EXPECT_EQ(stats.values_not_found, 1u);
}

TEST(Extractor, MissingPropertiesAreNull) {
  TripleStore kg = CountryKg();
  auto e = ExtractAttributes(BaseTable(), "Country", kg);
  ASSERT_TRUE(e.ok());
  // Find France's row (rows sorted by key: Atlantis, France, Germany, USA).
  EXPECT_TRUE(e->GetCell(1, "gini")->is_null());
  EXPECT_FALSE(e->GetCell(2, "gini")->is_null());
  // Unlinked Atlantis: all attributes null.
  EXPECT_TRUE(e->GetCell(0, "hdi")->is_null());
}

TEST(Extractor, TwoHopsBringLeaderAge) {
  TripleStore kg = CountryKg();
  ExtractionOptions opts;
  opts.hops = 2;
  auto e = ExtractAttributes(BaseTable(), "Country", kg, opts);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->schema().Contains("leader_age"));
  EXPECT_DOUBLE_EQ(e->GetCell(2, "leader_age")->double_value(), 65.0);
}

TEST(Extractor, OneToManyAggregation) {
  TripleStore kg = CountryKg();
  ExtractionOptions avg_opts;
  avg_opts.one_to_many_agg = AggregateFunction::kAvg;
  auto e = ExtractAttributes(BaseTable(), "Country", kg, avg_opts);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->GetCell(3, "group_size")->double_value(), 20.0);
  ExtractionOptions max_opts;
  max_opts.one_to_many_agg = AggregateFunction::kMax;
  auto e2 = ExtractAttributes(BaseTable(), "Country", kg, max_opts);
  ASSERT_TRUE(e2.ok());
  EXPECT_DOUBLE_EQ(e2->GetCell(3, "group_size")->double_value(), 30.0);
}

TEST(Extractor, AliasLinksUsa) {
  TripleStore kg = CountryKg();
  auto e = ExtractAttributes(BaseTable(), "Country", kg);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->GetCell(3, "hdi")->double_value(), 0.92);
}

TEST(Extractor, RejectsNumericKeyColumn) {
  TripleStore kg = CountryKg();
  Table base = *ReadCsvString("k,v\n1,2\n");
  EXPECT_FALSE(ExtractAttributes(base, "k", kg).ok());
}

TEST(Extractor, AugmentJoinsOntoBase) {
  TripleStore kg = CountryKg();
  auto aug = AugmentTableFromKg(BaseTable(), {"Country"}, kg);
  ASSERT_TRUE(aug.ok());
  EXPECT_EQ(aug->table.num_rows(), 5u);
  EXPECT_TRUE(aug->table.schema().Contains("hdi"));
  // Germany appears twice; both rows carry its hdi.
  EXPECT_DOUBLE_EQ(aug->table.GetCell(0, "hdi")->double_value(), 0.94);
  EXPECT_DOUBLE_EQ(aug->table.GetCell(1, "hdi")->double_value(), 0.94);
  // Atlantis row: nulls.
  EXPECT_TRUE(aug->table.GetCell(4, "hdi")->is_null());
  EXPECT_FALSE(aug->extracted_columns.empty());
  ASSERT_EQ(aug->entity_tables.size(), 1u);
  EXPECT_EQ(aug->entity_tables[0].num_rows(), 4u);
}

TEST(Extractor, AugmentPrefixesCollisions) {
  TripleStore kg = CountryKg();
  // Base already has an "hdi" column.
  Table base = *ReadCsvString("Country,hdi\nGermany,9\n");
  auto aug = AugmentTableFromKg(base, {"Country"}, kg);
  ASSERT_TRUE(aug.ok());
  EXPECT_TRUE(aug->table.schema().Contains("Country.hdi"));
  EXPECT_DOUBLE_EQ(aug->table.GetCell(0, "Country.hdi")->double_value(), 0.94);
  EXPECT_EQ(aug->table.GetCell(0, "hdi")->int_value(), 9);
}

// ---------------------------------------------------------- TriplePattern

TEST(TriplePatternMatch, BySubject) {
  TripleStore kg = CountryKg();
  EntityId de = *kg.FindByLabel("Germany");
  auto triples = kg.Match({.subject = de});
  EXPECT_EQ(triples.size(), kg.PropertiesOf(de).size());
}

TEST(TriplePatternMatch, ByPredicateAcrossSubjects) {
  TripleStore kg = CountryKg();
  auto triples = kg.Match({.predicate = "hdi"});
  EXPECT_EQ(triples.size(), 3u);
  auto none = kg.Match({.predicate = "no_such_predicate"});
  EXPECT_TRUE(none.empty());
}

TEST(TriplePatternMatch, ByLiteralValue) {
  TripleStore kg = CountryKg();
  auto triples = kg.Match({.predicate = "hdi", .literal = Value::Double(0.94)});
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(kg.entity(triples[0]->subject).label, "Germany");
}

TEST(TriplePatternMatch, ByObjectEntity) {
  TripleStore kg = CountryKg();
  EntityId leader = *kg.FindByLabel("Chancellor");
  auto triples = kg.Match({.object_entity = leader});
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(kg.predicate_name(triples[0]->predicate), "leader");
  // A literal pattern never matches an entity edge.
  EXPECT_TRUE(kg.Match({.predicate = "leader",
                        .literal = Value::String("Chancellor")})
                  .empty());
}

TEST(TriplePatternMatch, WildcardEverything) {
  TripleStore kg = CountryKg();
  EXPECT_EQ(kg.Match({}).size(), kg.num_triples());
}

// ----------------------------------------------------------- SyntheticKg

TEST(SyntheticKg, BuilderAddsEntitiesIdempotently) {
  TripleStore kg;
  SyntheticKgBuilder b(&kg, 1);
  EntityId a = b.EnsureEntity("X", "T");
  EntityId a2 = b.EnsureEntity("X", "T");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(kg.num_entities(), 1u);
}

TEST(SyntheticKg, MissingRateDropsProperties) {
  TripleStore kg;
  SyntheticKgBuilder b(&kg, 2);
  for (int i = 0; i < 500; ++i) {
    EntityId e = b.EnsureEntity(Label("E", i), "T");
    b.AddNumeric(e, "p", 1.0, 0.4);
  }
  double present = static_cast<double>(kg.num_triples()) / 500.0;
  EXPECT_NEAR(present, 0.6, 0.07);
}

TEST(SyntheticKg, NoisePropertiesIncludeIdAndType) {
  TripleStore kg;
  SyntheticKgBuilder b(&kg, 3);
  EntityId e = b.EnsureEntity("X", "Country");
  b.AddNoiseProperties(e, "Country", 2, 0.0);
  auto preds = kg.PredicatesOfType("Country");
  EXPECT_NE(std::find(preds.begin(), preds.end(), "type"), preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), "wikiID"), preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), "noise_attr_0"), preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), "noise_attr_1"), preds.end());
}

TEST(SyntheticKg, RankTwinAdded) {
  TripleStore kg;
  SyntheticKgBuilder b(&kg, 4);
  EntityId e = b.EnsureEntity("X", "T");
  b.AddNumericWithRank(e, "hdi", 0.9, 3.0, 0.0);
  auto props = kg.PropertiesOf(e);
  ASSERT_EQ(props.size(), 2u);
}

}  // namespace
}  // namespace mesa
