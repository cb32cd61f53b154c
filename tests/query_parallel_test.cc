// Tests for the morsel-driven data plane: hash join, TakeRows and per-value
// KG extraction are checked against independent per-row references
// (GetValue loops, and a synthetic KG whose attributes are known functions
// of the key) at 1, 2 and 8 threads, and must be byte-identical across
// thread counts. Inputs on both sides of each operator's one-lane
// threshold are covered. Same pattern as parallel_test.cc; this binary is
// a TSan target alongside it (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/registry.h"
#include "kg/endpoint.h"
#include "kg/extractor.h"
#include "kg/resilient_client.h"
#include "query/join.h"
#include "table/table.h"

namespace mesa {
namespace {

// Restores the global pool when a test exits.
struct PoolGuard {
  ~PoolGuard() { SetNumThreads(1); }
};

constexpr size_t kThreadCounts[] = {1, 2, 8};

// A LocalEndpoint that cannot be cloned for extraction shards, so the
// extractor scans every key through one shared client.
class UncloneableEndpoint : public LocalEndpoint {
 public:
  using LocalEndpoint::LocalEndpoint;
  std::shared_ptr<KgEndpoint> CloneForShard() const override {
    return nullptr;
  }
};

// A seeded random table big enough to cross the parallel thresholds:
//   k_str  string key, ~20 distinct values (nullable)
//   k_int  int key, ~12 distinct values (nullable)
//   x      double outcome (nullable)
//   payload extra double column (join payload / TakeRows coverage)
// `null_rate` also controls the null density of the keys, so the
// null-heavy configurations exercise the skip paths hard.
Table MakeRandomTable(uint64_t seed, size_t rows, double null_rate) {
  Rng rng(seed);
  Column k_str(DataType::kString);
  Column k_int(DataType::kInt64);
  Column x(DataType::kDouble);
  Column payload(DataType::kDouble);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(null_rate)) {
      k_str.AppendNull();
    } else {
      k_str.AppendString("key_" + std::to_string(rng.NextBelow(20)));
    }
    if (rng.NextBernoulli(null_rate)) {
      k_int.AppendNull();
    } else {
      k_int.AppendInt(static_cast<int64_t>(rng.NextBelow(12)));
    }
    if (rng.NextBernoulli(null_rate * 0.5)) {
      x.AppendNull();
    } else {
      x.AppendDouble(rng.NextGaussian(10.0, 3.0));
    }
    payload.AppendDouble(rng.NextUniform(-1.0, 1.0));
  }
  Schema schema;
  EXPECT_TRUE(schema.AddField({"k_str", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddField({"k_int", DataType::kInt64}).ok());
  EXPECT_TRUE(schema.AddField({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(schema.AddField({"payload", DataType::kDouble}).ok());
  auto t = Table::Make(std::move(schema),
                       {std::move(k_str), std::move(k_int), std::move(x),
                        std::move(payload)});
  EXPECT_TRUE(t.ok());
  return *t;
}

void ExpectTablesEqual(const Table& a, const Table& b,
                       const std::string& what) {
  ASSERT_EQ(a.schema().ToString(), b.schema().ToString()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
          << what << " col " << a.schema().field(c).name << " row " << r;
    }
  }
}

// ------------------------------------------------------------- hash join

// Independent join reference: for each left row in order, the first right
// row whose key is equal (null never matches), found through a std::map
// of per-row GetValue keys; an inner join drops unmatched rows. Returns
// (left row, right row or -1) pairs in output order.
std::vector<std::pair<size_t, int64_t>> NaiveJoinRows(
    const Table& left, const std::string& left_key, const Table& right,
    const std::string& right_key, JoinType type) {
  const Column& lk = **left.ColumnByName(left_key);
  const Column& rk = **right.ColumnByName(right_key);
  std::map<Value, int64_t> first;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (!rk.IsNull(r)) first.emplace(rk.GetValue(r), static_cast<int64_t>(r));
  }
  std::vector<std::pair<size_t, int64_t>> out;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    int64_t match = -1;
    if (!lk.IsNull(r)) {
      auto it = first.find(lk.GetValue(r));
      if (it != first.end()) match = it->second;
    }
    if (match < 0 && type == JoinType::kInner) continue;
    out.emplace_back(r, match);
  }
  return out;
}

// Checks every cell of `joined` against the reference row pairs: left
// columns first, then the right columns minus its key, unmatched right
// cells null.
void ExpectJoinMatchesReference(const Table& joined, const Table& left,
                                const std::string& left_key,
                                const Table& right,
                                const std::string& right_key, JoinType type,
                                const std::string& what) {
  const auto rows = NaiveJoinRows(left, left_key, right, right_key, type);
  ASSERT_EQ(joined.num_rows(), rows.size()) << what;
  ASSERT_EQ(joined.num_columns(), left.num_columns() + right.num_columns() - 1)
      << what;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [lrow, rrow] = rows[i];
    size_t out_col = 0;
    for (size_t c = 0; c < left.num_columns(); ++c, ++out_col) {
      ASSERT_TRUE(joined.column(out_col).GetValue(i) ==
                  left.column(c).GetValue(lrow))
          << what << " row " << i << " left col " << c;
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      if (right.schema().field(c).name == right_key) continue;
      const Value want = rrow < 0 ? Value::Null()
                                  : right.column(c).GetValue(
                                        static_cast<size_t>(rrow));
      ASSERT_TRUE(joined.column(out_col).GetValue(i) == want)
          << what << " row " << i << " right col " << c;
      ++out_col;
    }
  }
  // Storage, not just values: every output column fingerprints like one
  // appended cell by cell (null rows hold the default payload and code "").
  for (size_t c = 0; c < joined.num_columns(); ++c) {
    const Column& got = joined.column(c);
    Column want(got.type());
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_TRUE(want.Append(got.GetValue(r)).ok()) << what;
    }
    ASSERT_EQ(want.ContentFingerprint(), got.ContentFingerprint())
        << what << " col " << joined.schema().field(c).name;
  }
}

// Right side: one row per key plus deliberate duplicates and null keys.
Table MakeRightTable(uint64_t seed) {
  Rng rng(seed);
  Column key(DataType::kString);
  Column attr(DataType::kDouble);
  Column label(DataType::kString);
  for (int rep = 0; rep < 2; ++rep) {  // second pass = duplicate keys
    for (int k = 0; k < 25; ++k) {     // 20 match the left pool, 5 dangle
      if (rep == 1 && k % 3 != 0) continue;
      key.AppendString("key_" + std::to_string(k));
      attr.AppendDouble(rng.NextGaussian());
      label.AppendString("label_" + std::to_string(rng.NextBelow(100)));
    }
    key.AppendNull();
    attr.AppendDouble(rng.NextGaussian());
    label.AppendNull();
  }
  Schema schema;
  EXPECT_TRUE(schema.AddField({"k_str", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddField({"attr", DataType::kDouble}).ok());
  EXPECT_TRUE(schema.AddField({"label", DataType::kString}).ok());
  auto t = Table::Make(std::move(schema),
                       {std::move(key), std::move(attr), std::move(label)});
  EXPECT_TRUE(t.ok());
  return *t;
}

// Left sides of 6000 rows run the morsel build/probe/gather on the whole
// pool; every fifth seed uses 1500 rows, below the one-lane threshold.
TEST(QueryParallel, HashJoinBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const double null_rate = (seed % 2 == 1) ? 0.4 : 0.05;
    Table left = MakeRandomTable(seed, seed % 5 == 0 ? 1500 : 6000, null_rate);
    Table right = MakeRightTable(seed + 100);

    for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
      JoinOptions options;
      options.type = type;
      std::unique_ptr<Table> first;
      for (size_t threads : kThreadCounts) {
        SetNumThreads(threads);
        auto joined = HashJoin(left, "k_str", right, "k_str", options);
        ASSERT_TRUE(joined.ok()) << joined.status().ToString();
        const std::string what =
            "seed " + std::to_string(seed) + " threads " +
            std::to_string(threads) + " type " +
            (type == JoinType::kLeft ? "left" : "inner");
        ExpectJoinMatchesReference(*joined, left, "k_str", right, "k_str",
                                   type, what);
        if (first == nullptr) {
          first = std::make_unique<Table>(std::move(*joined));
        } else {
          ExpectTablesEqual(*first, *joined, what);
        }
      }
    }
  }
}

// Builds a table from named columns.
Table MakeTable(std::vector<std::pair<std::string, Column>> columns) {
  Schema schema;
  std::vector<Column> cols;
  for (auto& [name, column] : columns) {
    EXPECT_TRUE(schema.AddField({name, column.type()}).ok());
    cols.push_back(std::move(column));
  }
  auto t = Table::Make(std::move(schema), std::move(cols));
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(*t);
}

// The join resolves dictionary entries, not rows, so the inputs here aim
// at the dictionary: left entries no row uses (a taken column keeps its
// source's dictionary) and entries absent on the right; a non-null ""
// key on both sides next to null rows, which code "" too; an all-null
// left key; duplicate and null right keys; and right payloads of every
// type, including a string column whose dictionary lacks "" until an
// unmatched row needs it. Both sides of the one-lane threshold.
TEST(QueryParallel, HashJoinDictionaryEdgeCasesMatchReference) {
  PoolGuard guard;
  for (size_t rows : {size_t{700}, size_t{9000}}) {
    Rng rng(rows);
    // Left: 40 key values, of which only the even ones survive the take;
    // "" and null rows sit among them.
    Column source_key(DataType::kString);
    for (int k = 0; k < 40; ++k) source_key.AppendString("e_" + std::to_string(k));
    source_key.AppendString("");
    source_key.AppendNull();
    std::vector<size_t> picks;
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t u = rng.NextBelow(24);
      picks.push_back(u < 20 ? 2 * u : (u < 22 ? 40 : 41));
    }
    Column key = source_key.Take(picks);
    Column all_null(DataType::kString);
    Column x(DataType::kDouble);
    for (size_t r = 0; r < rows; ++r) {
      all_null.AppendNull();
      x.AppendDouble(rng.NextGaussian());
    }
    std::vector<std::pair<std::string, Column>> left_cols;
    left_cols.emplace_back("k", std::move(key));
    left_cols.emplace_back("none", std::move(all_null));
    left_cols.emplace_back("x", std::move(x));
    const Table left = MakeTable(std::move(left_cols));

    // Right: every fourth even entry, some odd entries the left never
    // uses, "" (non-null), then duplicates and null keys.
    Column rkey(DataType::kString);
    Column d(DataType::kDouble);
    Column i(DataType::kInt64);
    Column b(DataType::kBool);
    Column label(DataType::kString);    // never null, never ""
    Column sparse(DataType::kString);   // nulls, so "" is in its dictionary
    auto add = [&](const std::string* k, int v) {
      if (k == nullptr) {
        rkey.AppendNull();
      } else {
        rkey.AppendString(*k);
      }
      d.AppendDouble(v * 0.5);
      i.AppendInt(v);
      if (v % 5 == 0) {
        b.AppendNull();
        sparse.AppendNull();
      } else {
        b.AppendBool(v % 2 == 0);
        sparse.AppendString("s_" + std::to_string(v % 3));
      }
      label.AppendString("l_" + std::to_string(v));
    };
    int v = 1;
    for (int k = 0; k < 40; k += 4) {
      const std::string name = "e_" + std::to_string(k);
      add(&name, v++);
    }
    for (int k = 1; k < 40; k += 6) {
      const std::string name = "e_" + std::to_string(k);
      add(&name, v++);
    }
    const std::string empty;
    add(&empty, v++);
    add(nullptr, v++);
    for (int k = 0; k < 40; k += 8) {  // duplicates: the first row wins
      const std::string name = "e_" + std::to_string(k);
      add(&name, v++);
    }
    add(&empty, v++);
    add(nullptr, v++);
    std::vector<std::pair<std::string, Column>> right_cols;
    right_cols.emplace_back("k", std::move(rkey));
    right_cols.emplace_back("d", std::move(d));
    right_cols.emplace_back("i", std::move(i));
    right_cols.emplace_back("b", std::move(b));
    right_cols.emplace_back("label", std::move(label));
    right_cols.emplace_back("sparse", std::move(sparse));
    const Table right = MakeTable(std::move(right_cols));

    for (const std::string left_key : {"k", "none"}) {
      for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
        JoinOptions options;
        options.type = type;
        for (size_t threads : kThreadCounts) {
          SetNumThreads(threads);
          auto joined = HashJoin(left, left_key, right, "k", options);
          ASSERT_TRUE(joined.ok()) << joined.status().ToString();
          ExpectJoinMatchesReference(
              *joined, left, left_key, right, "k", type,
              "rows " + std::to_string(rows) + " key " + left_key +
                  " threads " + std::to_string(threads) +
                  (type == JoinType::kLeft ? " left" : " inner"));
        }
      }
    }
  }
}

// A large take (several morsels, one task per column) and a small one
// (one lane), against per-row GetValue.
TEST(QueryParallel, TakeRowsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Table table = MakeRandomTable(11, 9000, 0.3);
  Rng rng(99);
  for (size_t take : {7000, 900}) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < take; ++i) {
      rows.push_back(static_cast<size_t>(rng.NextBelow(table.num_rows())));
    }
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      Table taken = table.TakeRows(rows);
      const std::string what = "TakeRows " + std::to_string(take) +
                               " threads " + std::to_string(threads);
      ASSERT_EQ(taken.schema().ToString(), table.schema().ToString()) << what;
      ASSERT_EQ(taken.num_rows(), rows.size()) << what;
      for (size_t c = 0; c < table.num_columns(); ++c) {
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_TRUE(taken.column(c).GetValue(i) ==
                      table.column(c).GetValue(rows[i]))
              << what << " col " << c << " row " << i;
        }
      }
    }
  }
}

// A single kept right-side column over a large probe: the gather must
// parallelize inside the one column and still match the reference.
TEST(QueryParallel, HashJoinLargeSingleColumnBitIdentical) {
  PoolGuard guard;
  Rng rng(555);
  Column lkey(DataType::kString);
  Column payload(DataType::kDouble);
  const size_t rows = 20000;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(0.05)) {
      lkey.AppendNull();
    } else {
      lkey.AppendString("r_" + std::to_string(rng.NextBelow(3000)));
    }
    payload.AppendDouble(rng.NextUniform(-1.0, 1.0));
  }
  Schema lschema;
  ASSERT_TRUE(lschema.AddField({"k", DataType::kString}).ok());
  ASSERT_TRUE(lschema.AddField({"payload", DataType::kDouble}).ok());
  auto left =
      Table::Make(std::move(lschema), {std::move(lkey), std::move(payload)});
  ASSERT_TRUE(left.ok());

  Column rkey(DataType::kString);
  Column attr(DataType::kString);
  for (size_t k = 0; k < 2500; ++k) {  // 500 left keys dangle
    rkey.AppendString("r_" + std::to_string(k));
    if (k % 7 == 0) {
      attr.AppendNull();  // null payloads gather as the empty string's code
    } else {
      attr.AppendString("attr_" + std::to_string(rng.NextBelow(50)));
    }
  }
  Schema rschema;
  ASSERT_TRUE(rschema.AddField({"k", DataType::kString}).ok());
  ASSERT_TRUE(rschema.AddField({"attr", DataType::kString}).ok());
  auto right =
      Table::Make(std::move(rschema), {std::move(rkey), std::move(attr)});
  ASSERT_TRUE(right.ok());

  for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
    JoinOptions options;
    options.type = type;
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      auto joined = HashJoin(*left, "k", *right, "k", options);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      ExpectJoinMatchesReference(
          *joined, *left, "k", *right, "k", type,
          "single-col join threads " + std::to_string(threads) +
              (type == JoinType::kLeft ? " left" : " inner"));
    }
  }
}

// ------------------------------------------------------------- extraction

void ExpectStatsEqual(const ExtractionStats& a, const ExtractionStats& b) {
  EXPECT_EQ(a.values_total, b.values_total);
  EXPECT_EQ(a.values_linked, b.values_linked);
  EXPECT_EQ(a.values_ambiguous, b.values_ambiguous);
  EXPECT_EQ(a.values_not_found, b.values_not_found);
  EXPECT_EQ(a.values_failed, b.values_failed);
  EXPECT_EQ(a.attributes_extracted, b.attributes_extracted);
}

// The covid KG at two hops (under the one-lane replay threshold): the raw
// TripleStore walk, the sharded client and the shared-client scan of an
// endpoint that cannot clone all agree, at every thread count.
TEST(QueryParallel, ExtractionBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
  ASSERT_TRUE(ds.ok());
  ExtractionOptions options;
  options.hops = 2;

  for (const std::string& column : {std::string("Country"),
                                    std::string("WHO_Region")}) {
    SetNumThreads(1);
    ExtractionStats ref_stats;
    auto reference =
        ExtractAttributes(ds->table, column, *ds->kg, options, &ref_stats);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      const std::string what =
          column + " threads " + std::to_string(threads);
      ExtractionStats store_stats;
      auto store = ExtractAttributes(ds->table, column, *ds->kg, options,
                                     &store_stats);
      ASSERT_TRUE(store.ok());
      ExpectTablesEqual(*reference, *store, "store " + what);
      ExpectStatsEqual(ref_stats, store_stats);

      ResilientKgClient sharded(std::make_shared<LocalEndpoint>(ds->kg.get()));
      ASSERT_TRUE(sharded.SupportsSharding());
      ExtractionStats sharded_stats;
      auto via_shards = ExtractAttributes(ds->table, column, &sharded,
                                          options, &sharded_stats);
      ASSERT_TRUE(via_shards.ok());
      ExpectTablesEqual(*reference, *via_shards, "sharded client " + what);
      ExpectStatsEqual(ref_stats, sharded_stats);

      ResilientKgClient shared(
          std::make_shared<UncloneableEndpoint>(ds->kg.get()));
      ASSERT_FALSE(shared.SupportsSharding());
      ExtractionStats shared_stats;
      auto via_shared = ExtractAttributes(ds->table, column, &shared, options,
                                          &shared_stats);
      ASSERT_TRUE(via_shared.ok());
      ExpectTablesEqual(*reference, *via_shared, "shared client " + what);
      ExpectStatsEqual(ref_stats, shared_stats);
    }
  }
}

// A synthetic KG of 1500 entities whose attributes are known functions of
// the entity index e ("ent_<e>"):
//   population = 0.5 * e + 1              (every entity)
//   region     = "reg_<e % 11>"           (only when e % 3 != 0)
//   mixed      = double e if e is even, "m<e>" if odd (so the column
//                infers as string and even entities hold the double's
//                text)
// Keys "missing_<k>" link to nothing. Enough distinct keys push the slot
// replay past its one-lane threshold; every extracted cell is checked
// against the functions above, at every thread count, for the raw
// TripleStore walk and the sharded client.
TEST(QueryParallel, ExtractionHighCardinalityBitIdentical) {
  PoolGuard guard;
  TripleStore store;
  const size_t entities = 1500;
  for (size_t e = 0; e < entities; ++e) {
    auto id = store.AddEntity("ent_" + std::to_string(e), "Thing");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(store
                    .AddLiteral(*id, "population",
                                Value::Double(0.5 * static_cast<double>(e) +
                                              1.0))
                    .ok());
    if (e % 3 != 0) {
      ASSERT_TRUE(store
                      .AddLiteral(*id, "region",
                                  Value::String("reg_" +
                                                std::to_string(e % 11)))
                      .ok());
    }
    if (e % 2 == 0) {
      ASSERT_TRUE(
          store.AddLiteral(*id, "mixed", Value::Double(double(e))).ok());
    } else {
      ASSERT_TRUE(
          store.AddLiteral(*id, "mixed", Value::String("m" + std::to_string(e)))
              .ok());
    }
  }

  Rng rng(808);
  Column key(DataType::kString);
  for (size_t r = 0; r < 12000; ++r) {
    if (rng.NextBernoulli(0.03)) {
      key.AppendNull();
    } else if (rng.NextBernoulli(0.05)) {
      key.AppendString("missing_" + std::to_string(rng.NextBelow(100)));
    } else {
      key.AppendString("ent_" + std::to_string(rng.NextBelow(entities)));
    }
  }
  // Distinct non-null keys, the extraction's row set and order.
  std::set<std::string> distinct;
  for (size_t r = 0; r < key.size(); ++r) {
    if (!key.IsNull(r)) distinct.insert(key.GetValue(r).string_value());
  }
  size_t linked = 0;
  for (const std::string& k : distinct) linked += k.rfind("ent_", 0) == 0;
  ASSERT_GT(linked, 1000u) << "too few keys to cross the replay threshold";
  ASSERT_LT(linked, distinct.size());

  Schema schema;
  ASSERT_TRUE(schema.AddField({"key", DataType::kString}).ok());
  auto table = Table::Make(std::move(schema), {std::move(key)});
  ASSERT_TRUE(table.ok());

  auto check = [&](const Table& out, const ExtractionStats& stats,
                   const std::string& what) {
    EXPECT_EQ(stats.values_total, distinct.size()) << what;
    EXPECT_EQ(stats.values_linked, linked) << what;
    EXPECT_EQ(stats.values_not_found, distinct.size() - linked) << what;
    EXPECT_EQ(stats.values_failed, 0u) << what;
    ASSERT_EQ(out.schema().ToString(),
              "key:string, mixed:string, population:double, region:string")
        << what;
    ASSERT_EQ(out.num_rows(), distinct.size()) << what;
    size_t r = 0;
    for (const std::string& k : distinct) {
      ASSERT_EQ(out.column(0).GetValue(r).string_value(), k) << what;
      const Value mixed = out.column(1).GetValue(r);
      const Value population = out.column(2).GetValue(r);
      const Value region = out.column(3).GetValue(r);
      if (k.rfind("ent_", 0) != 0) {
        EXPECT_TRUE(mixed.is_null() && population.is_null() &&
                    region.is_null())
            << what << " key " << k;
      } else {
        const size_t e = std::stoul(k.substr(4));
        EXPECT_EQ(population.double_value(),
                  0.5 * static_cast<double>(e) + 1.0)
            << what << " key " << k;
        if (e % 3 != 0) {
          EXPECT_EQ(region.string_value(), "reg_" + std::to_string(e % 11))
              << what << " key " << k;
        } else {
          EXPECT_TRUE(region.is_null()) << what << " key " << k;
        }
        EXPECT_EQ(mixed.string_value(),
                  e % 2 == 0 ? Value::Double(double(e)).ToString()
                             : "m" + std::to_string(e))
            << what << " key " << k;
      }
      ++r;
    }
  };

  ExtractionOptions options;
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    const std::string what = "threads " + std::to_string(threads);
    ExtractionStats store_stats;
    auto from_store =
        ExtractAttributes(*table, "key", store, options, &store_stats);
    ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
    check(*from_store, store_stats, "store " + what);

    ResilientKgClient client(std::make_shared<LocalEndpoint>(&store));
    ExtractionStats client_stats;
    auto from_client =
        ExtractAttributes(*table, "key", &client, options, &client_stats);
    ASSERT_TRUE(from_client.ok()) << from_client.status().ToString();
    check(*from_client, client_stats, "client " + what);
  }
}

}  // namespace
}  // namespace mesa
