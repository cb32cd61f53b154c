#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "query/aggregate.h"
#include "query/group_by.h"
#include "query/join.h"
#include "query/predicate.h"
#include "query/query_spec.h"
#include "table/csv.h"

namespace mesa {
namespace {

Table People() {
  return *ReadCsvString(
      "name,country,age,salary\n"
      "ann,DE,30,100\n"
      "bob,DE,40,120\n"
      "cat,FR,35,90\n"
      "dan,FR,25,\n"
      "eve,US,50,200\n"
      "fox,,45,150\n");
}

// ------------------------------------------------------------- Condition

TEST(Condition, EqOnString) {
  Table t = People();
  Condition c{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_TRUE(*EvalCondition(c, t, 0));
  EXPECT_FALSE(*EvalCondition(c, t, 2));
}

TEST(Condition, NullCellNeverMatches) {
  Table t = People();
  Condition eq{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_FALSE(*EvalCondition(eq, t, 5));
  Condition ne{"country", CompareOp::kNe, Value::String("DE"), {}};
  EXPECT_FALSE(*EvalCondition(ne, t, 5));  // SQL three-valued logic
}

TEST(Condition, NumericComparisons) {
  Table t = People();
  Condition ge{"age", CompareOp::kGe, Value::Int(40), {}};
  EXPECT_FALSE(*EvalCondition(ge, t, 0));
  EXPECT_TRUE(*EvalCondition(ge, t, 1));
  Condition lt{"age", CompareOp::kLt, Value::Double(30.5), {}};
  EXPECT_TRUE(*EvalCondition(lt, t, 0));
  EXPECT_FALSE(*EvalCondition(lt, t, 2));
}

TEST(Condition, InOperator) {
  Table t = People();
  Condition in{"country",
               CompareOp::kIn,
               Value::Null(),
               {Value::String("FR"), Value::String("US")}};
  EXPECT_FALSE(*EvalCondition(in, t, 0));
  EXPECT_TRUE(*EvalCondition(in, t, 2));
  EXPECT_TRUE(*EvalCondition(in, t, 4));
}

TEST(Condition, TypeMismatchIsError) {
  Table t = People();
  Condition c{"country", CompareOp::kLt, Value::Int(3), {}};
  EXPECT_FALSE(EvalCondition(c, t, 0).ok());
}

TEST(Condition, MissingColumnIsError) {
  Table t = People();
  Condition c{"ghost", CompareOp::kEq, Value::Int(3), {}};
  EXPECT_FALSE(EvalCondition(c, t, 0).ok());
}

TEST(Condition, ToStringRendering) {
  Condition c{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_EQ(c.ToString(), "country = 'DE'");
  Condition in{"x", CompareOp::kIn, Value::Null(),
               {Value::Int(1), Value::Int(2)}};
  EXPECT_EQ(in.ToString(), "x IN (1, 2)");
}

// ----------------------------------------------------------- Conjunction

TEST(Conjunction, EmptyAcceptsAll) {
  Table t = People();
  Conjunction c;
  auto mask = c.EvaluateMask(t);
  ASSERT_TRUE(mask.ok());
  for (uint8_t m : *mask) EXPECT_EQ(m, 1);
  EXPECT_EQ(c.ToString(), "TRUE");
}

TEST(Conjunction, AndSemantics) {
  Table t = People();
  Conjunction c;
  c.Add({"country", CompareOp::kEq, Value::String("DE"), {}});
  c.Add({"age", CompareOp::kGt, Value::Int(35), {}});
  auto rows = c.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], 1u);
}

TEST(Conjunction, RefineAndContains) {
  Conjunction base;
  base.Add({"a", CompareOp::kEq, Value::Int(1), {}});
  Conjunction refined = base.Refine({"b", CompareOp::kEq, Value::Int(2), {}});
  EXPECT_EQ(refined.size(), 2u);
  EXPECT_TRUE(refined.Contains(base));
  EXPECT_FALSE(base.Contains(refined));
}

// ------------------------------------------- EvaluateMask vs per-row oracle

// Reference mask: EvalCondition on every row still set, condition by
// condition — the per-row Value semantics the typed scan must reproduce,
// including where a type mismatch first surfaces.
Result<std::vector<uint8_t>> PerRowMask(const Conjunction& conj,
                                        const Table& table) {
  std::vector<uint8_t> mask(table.num_rows(), 1);
  for (const Condition& cond : conj.conditions()) {
    MESA_RETURN_IF_ERROR(table.ColumnByName(cond.column).status());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!mask[r]) continue;
      MESA_ASSIGN_OR_RETURN(bool ok, EvalCondition(cond, table, r));
      if (!ok) mask[r] = 0;
    }
  }
  return mask;
}

Table MaskOracleTable(uint64_t seed, size_t n) {
  Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* strings[] = {"DE", "FR", "O'Neil", "a b", "", "de"};
  Column d(DataType::kDouble), i(DataType::kInt64), s(DataType::kString),
      b(DataType::kBool);
  for (size_t r = 0; r < n; ++r) {
    const double u = rng.NextDouble();
    if (u < 0.1) {
      d.AppendNull();
    } else if (u < 0.15) {
      d.AppendDouble(nan);
    } else if (u < 0.25) {
      d.AppendDouble(rng.NextBernoulli(0.5) ? -0.0 : 0.0);
    } else {
      d.AppendDouble(static_cast<double>(rng.NextInt(-3, 3)) * 0.5);
    }
    if (rng.NextBernoulli(0.1)) {
      i.AppendNull();
      s.AppendNull();
      b.AppendNull();
    } else {
      i.AppendInt(rng.NextInt(-3, 3));
      s.AppendString(strings[rng.NextBelow(6)]);
      b.AppendBool(rng.NextBernoulli(0.5));
    }
  }
  Schema schema({{"d", DataType::kDouble},
                 {"i", DataType::kInt64},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
  return *Table::Make(std::move(schema), {std::move(d), std::move(i),
                                          std::move(s), std::move(b)});
}

// Literals of every type (and null), so mismatches are drawn too.
Value RandomLiteral(Rng& rng) {
  switch (rng.NextBelow(7)) {
    case 0:
      return Value::Int(rng.NextInt(-3, 3));
    case 1:
      return Value::Double(static_cast<double>(rng.NextInt(-6, 6)) * 0.25);
    case 2:
      return Value::Double(-0.0);
    case 3: {
      const char* strings[] = {"DE", "O'Neil", "", "E", "a b", "zz"};
      return Value::String(strings[rng.NextBelow(6)]);
    }
    case 4:
      return Value::Bool(rng.NextBernoulli(0.5));
    case 5:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    default:
      return Value::Null();
  }
}

TEST(MaskOracle, TypedScanMatchesPerRowEvaluation) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kIn};
  const char* columns[] = {"d", "i", "s", "b"};
  size_t errors = 0, checked = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Table full = MaskOracleTable(seed, 400);
    std::vector<size_t> rows;
    for (size_t r = 0; r < full.num_rows(); r += 3) rows.push_back(r);
    const Table slice = full.TakeRows(rows);  // dictionary keeps all entries
    Rng rng(seed * 7919);
    for (int trial = 0; trial < 300; ++trial) {
      Conjunction conj;
      const size_t num_conditions = 1 + rng.NextBelow(3);
      for (size_t k = 0; k < num_conditions; ++k) {
        Condition c;
        c.column = columns[rng.NextBelow(4)];
        c.op = ops[rng.NextBelow(7)];
        if (c.op == CompareOp::kIn) {
          const size_t m = rng.NextBelow(4);
          for (size_t j = 0; j < m; ++j) {
            c.in_values.push_back(RandomLiteral(rng));
          }
        } else {
          c.value = RandomLiteral(rng);
        }
        conj.Add(std::move(c));
      }
      for (const Table* t : {&full, &slice}) {
        auto want = PerRowMask(conj, *t);
        auto got = conj.EvaluateMask(*t);
        ++checked;
        ASSERT_EQ(want.ok(), got.ok()) << conj.ToString();
        if (!want.ok()) {
          ++errors;
          EXPECT_EQ(want.status().code(), got.status().code());
          EXPECT_EQ(want.status().message(), got.status().message());
          continue;
        }
        EXPECT_EQ(*want, *got) << conj.ToString();
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, checked);
}

TEST(MaskOracle, TypeMismatchFailsOnlyWhenALiveRowReachesIt) {
  Table t = People();
  const Condition mismatch{"country", CompareOp::kLt, Value::Int(3), {}};
  // No row survives the first condition: the mismatch is never reached.
  Conjunction dead;
  dead.Add({"age", CompareOp::kGt, Value::Int(1000), {}});
  dead.Add(mismatch);
  auto mask = dead.EvaluateMask(t);
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();
  for (uint8_t m : *mask) EXPECT_EQ(m, 0);
  // Only fox survives, and fox's country is null: still never reached.
  Conjunction null_only;
  null_only.Add({"name", CompareOp::kEq, Value::String("fox"), {}});
  null_only.Add(mismatch);
  EXPECT_TRUE(null_only.EvaluateMask(t).ok());
  // A live, non-null row reaches it.
  Conjunction live;
  live.Add({"name", CompareOp::kEq, Value::String("ann"), {}});
  live.Add(mismatch);
  auto failed = live.EvaluateMask(t);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failed.status().message(), "incomparable types: string vs int64");
}

TEST(MaskOracle, IntColumnAgainstDoubleAndQuotedLiterals) {
  Table t = People();
  Conjunction c;
  c.Add({"age", CompareOp::kLe, Value::Double(35.0), {}});
  c.Add({"salary", CompareOp::kIn, Value::Null(),
         {Value::Double(100.0), Value::Int(90), Value::String("100")}});
  auto rows = c.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 2}));

  Table quoted = *ReadCsvString("who\n\"O'Neil\"\nann\n\"a, b\"\n");
  Conjunction q;
  q.Add({"who", CompareOp::kIn, Value::Null(),
         {Value::String("O'Neil"), Value::String("a, b")}});
  auto matched = q.MatchingRows(quoted);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(*matched, (std::vector<size_t>{0, 2}));
}

// -------------------------------------------------------------- Aggregate

TEST(Aggregate, BasicFunctions) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kAvg, v), 2.5);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kSum, v), 10.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kCount, v), 4.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMin, v), 1.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMax, v), 4.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMedian, v), 2.5);
}

TEST(Aggregate, MedianOddCount) {
  EXPECT_DOUBLE_EQ(
      *ComputeAggregate(AggregateFunction::kMedian, {5, 1, 3}), 3.0);
}

TEST(Aggregate, StdDev) {
  double sd = *ComputeAggregate(AggregateFunction::kStdDev, {2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_NEAR(sd, 2.0, 1e-9);
}

TEST(Aggregate, EmptyInput) {
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kCount, {}), 0.0);
  EXPECT_FALSE(ComputeAggregate(AggregateFunction::kAvg, {}).ok());
}

TEST(Aggregate, ParseNames) {
  EXPECT_EQ(*ParseAggregateFunction("AVG"), AggregateFunction::kAvg);
  EXPECT_EQ(*ParseAggregateFunction("mean"), AggregateFunction::kAvg);
  EXPECT_EQ(*ParseAggregateFunction("median"), AggregateFunction::kMedian);
  EXPECT_EQ(*ParseAggregateFunction("stddev"), AggregateFunction::kStdDev);
  EXPECT_FALSE(ParseAggregateFunction("wat").ok());
}

// ----------------------------------------------------------- EncodeGroups

TEST(EncodeGroups, DenseCodesWithNulls) {
  Table t = People();
  std::vector<Value> values;
  auto codes = EncodeGroups(t, "country", &values);
  ASSERT_TRUE(codes.ok());
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ((*codes)[0], (*codes)[1]);  // both DE
  EXPECT_NE((*codes)[0], (*codes)[2]);
  EXPECT_EQ((*codes)[5], -1);  // null country
}

// ------------------------------------------------------------------- Join

TEST(HashJoin, LeftJoinKeepsUnmatched) {
  Table left = People();
  Table right = *ReadCsvString("code,gdp\nDE,3.8\nFR,2.6\n");
  auto j = HashJoin(left, "country", right, "code");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 6u);
  EXPECT_DOUBLE_EQ(j->GetCell(0, "gdp")->double_value(), 3.8);
  EXPECT_TRUE(j->GetCell(4, "gdp")->is_null());  // US unmatched
  EXPECT_TRUE(j->GetCell(5, "gdp")->is_null());  // null key
}

TEST(HashJoin, InnerJoinDropsUnmatched) {
  Table left = People();
  Table right = *ReadCsvString("code,gdp\nDE,3.8\n");
  JoinOptions opts;
  opts.type = JoinType::kInner;
  auto j = HashJoin(left, "country", right, "code", opts);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2u);
}

TEST(HashJoin, CollisionPrefix) {
  Table left = People();
  Table right = *ReadCsvString("code,age\nDE,99\n");
  auto j = HashJoin(left, "country", right, "code");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().Contains("right_age"));
  EXPECT_EQ(j->GetCell(0, "right_age")->int_value(), 99);
  // Original column untouched.
  EXPECT_EQ(j->GetCell(0, "age")->int_value(), 30);
}

TEST(HashJoin, DuplicateRightKeysFirstWins) {
  Table left = *ReadCsvString("k\na\n");
  Table right = *ReadCsvString("k,v\na,1\na,2\n");
  auto j = HashJoin(left, "k", right, "k");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1u);
  EXPECT_EQ(j->GetCell(0, "v")->int_value(), 1);
}

TEST(HashJoin, EmptyStringKeyMatchesButNullKeyNever) {
  // Null rows code "" internally; only the non-null "" may match.
  Table left = *Table::Make(Schema({{"k", DataType::kString}}),
                            {Column::FromStrings({"", "a", ""})});
  left.mutable_column(0).SetNull(2);
  Table right = *Table::Make(
      Schema({{"k", DataType::kString}, {"v", DataType::kInt64}}),
      {Column::FromStrings({"a", "", ""}), Column::FromInts({1, 2, 3})});
  right.mutable_column(0).SetNull(1);
  auto j = HashJoin(left, "k", right, "k");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  ASSERT_EQ(j->num_rows(), 3u);
  EXPECT_EQ(j->GetCell(0, "v")->int_value(), 3);  // "" meets the non-null ""
  EXPECT_EQ(j->GetCell(1, "v")->int_value(), 1);
  EXPECT_TRUE(j->GetCell(2, "v")->is_null());     // null meets nothing
  JoinOptions inner;
  inner.type = JoinType::kInner;
  auto i = HashJoin(left, "k", right, "k", inner);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->num_rows(), 2u);
}

TEST(HashJoin, LeftColumnsAreMovedNotCopied) {
  Table left = People();
  const int64_t* ages = (*left.ColumnByName("age"))->int_data();
  Table right = *ReadCsvString("code,gdp\nDE,3.8\n");
  auto j = HashJoin(std::move(left), "country", right, "code");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j->ColumnByName("age"))->int_data(), ages);
}

TEST(HashJoin, NonStringKeyIsInvalidArgument) {
  Table left = *ReadCsvString("k,x\n1,a\n2,b\n");
  Table right = *ReadCsvString("k,v\n1,3.5\n");
  auto j = HashJoin(left, "k", right, "k");
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kInvalidArgument);
  Table strings = *ReadCsvString("k,v\nx,3.5\n");
  EXPECT_EQ(HashJoin(strings, "k", right, "k").status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- QuerySpec

TEST(QuerySpec, ValidationFailures) {
  Table t = People();
  QuerySpec q;
  q.exposure = "country";
  q.outcome = "salary";
  EXPECT_TRUE(q.Validate(t).ok());
  q.outcome = "country";
  EXPECT_FALSE(q.Validate(t).ok());  // same column
  q.outcome = "name";
  EXPECT_FALSE(q.Validate(t).ok());  // string outcome
  q.outcome = "salary";
  q.exposure = "ghost";
  EXPECT_FALSE(q.Validate(t).ok());  // missing exposure
  q.exposure = "country";
  q.context.Add({"ghost", CompareOp::kEq, Value::Int(1), {}});
  EXPECT_FALSE(q.Validate(t).ok());  // missing context column
}

TEST(QuerySpec, ToSql) {
  QuerySpec q;
  q.exposure = "Country";
  q.outcome = "Salary";
  q.table_name = "SO";
  q.context.Add({"Continent", CompareOp::kEq, Value::String("Europe"), {}});
  EXPECT_EQ(q.ToSql(),
            "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' "
            "GROUP BY Country");
}

}  // namespace
}  // namespace mesa
