#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/report_format.h"
#include "datagen/registry.h"

namespace mesa {
namespace {

MesaReport SampleReport() {
  GenOptions gen;
  gen.rows = 6000;
  auto ds = MakeDataset(DatasetKind::kStackOverflow, gen);
  MESA_CHECK(ds.ok());
  static Mesa* mesa =
      new Mesa(ds->table, ds->kg.get(), ds->extraction_columns);
  auto rep = mesa->Explain(
      CanonicalQueries(DatasetKind::kStackOverflow)[0].query);
  MESA_CHECK(rep.ok());
  return *rep;
}

TEST(ReportFormat, ContainsTheKeyNumbers) {
  MesaReport rep = SampleReport();
  std::string text = FormatReport(rep);
  EXPECT_NE(text.find("correlation"), std::string::npos);
  EXPECT_NE(text.find("explained"), std::string::npos);
  EXPECT_NE(text.find("GROUP BY Country"), std::string::npos);
  EXPECT_NE(text.find("candidates"), std::string::npos);
  // Every explanation attribute appears with a bar.
  for (const auto& name : rep.explanation.attribute_names) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(ReportFormat, TraceToggle) {
  MesaReport rep = SampleReport();
  ReportFormatOptions opts;
  opts.show_trace = true;
  opts.show_funnel = false;
  std::string text = FormatReport(rep, opts);
  if (!rep.explanation.trace.empty()) {
    EXPECT_NE(text.find("step"), std::string::npos);
  }
  EXPECT_EQ(text.find("candidates"), std::string::npos);
}

TEST(ReportFormat, EmptyExplanationRendersPlaceholder) {
  MesaReport rep;
  // Assigned as std::string: gcc 12 reports a false -Wrestrict on the
  // inlined const char* assignment.
  rep.query.exposure = std::string("T");
  rep.query.outcome = std::string("O");
  rep.base_cmi = 1.0;
  rep.final_cmi = 1.0;
  std::string text = FormatReport(rep);
  EXPECT_NE(text.find("(none found)"), std::string::npos);
  EXPECT_NE(text.find("(0% explained away)"), std::string::npos);
}

TEST(ReportFormat, NegativeResponsibilityMarked) {
  MesaReport rep;
  rep.query.exposure = std::string("T");
  rep.query.outcome = std::string("O");
  rep.base_cmi = 1.0;
  rep.final_cmi = 0.4;
  AttributeResponsibility good;
  good.name = "hdi";
  good.responsibility = 1.2;
  AttributeResponsibility bad;
  bad.name = "hobby";
  bad.responsibility = -0.2;
  rep.responsibilities = {good, bad};
  std::string text = FormatReport(rep);
  EXPECT_NE(text.find("harms the explanation"), std::string::npos);
}

TEST(FormatSubgroups, RendersRankedList) {
  UnexplainedSubgroup g;
  g.refinement.Add({"Continent", CompareOp::kEq, Value::String("Europe"), {}});
  g.size = 1234;
  g.score = 0.42;
  std::string text = FormatSubgroups({g});
  EXPECT_NE(text.find("Continent = 'Europe'"), std::string::npos);
  EXPECT_NE(text.find("1234"), std::string::npos);
  EXPECT_NE(FormatSubgroups({}).find("none above"), std::string::npos);
}

}  // namespace
}  // namespace mesa
