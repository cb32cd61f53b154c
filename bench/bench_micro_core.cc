// Micro-benchmarks (google-benchmark) for the core explanation machinery
// over the SO world: query preparation, the NextBestAtt inner loop, joint
// conditioning-set evaluation, the identification guard, full MCIMR, and
// the unexplained-subgroup search. These are the building blocks behind
// Figures 4-6. The BM_Prep* rows cost query-time preparation stage by
// stage over a KG-augmented flights context (docs/performance.md §10).

#include <benchmark/benchmark.h>

#include <memory>

#include "common/logging.h"
#include "core/mcimr.h"
#include "core/mesa.h"
#include "core/pruning.h"
#include "core/subgroups.h"
#include "datagen/registry.h"
#include "info/info_cache.h"
#include "missing/ipw.h"
#include "missing/selection_bias.h"
#include "query/sql_parser.h"
#include "stats/discretizer.h"

namespace mesa {
namespace {

struct SoFixture {
  GeneratedDataset dataset;
  std::unique_ptr<Mesa> mesa;
  Mesa::PreparedQuery pq;
  QuerySpec query;

  static SoFixture& Get() {
    static SoFixture* fixture = [] {
      auto* f = new SoFixture();
      GenOptions gen;
      gen.rows = 20000;
      auto ds = MakeDataset(DatasetKind::kStackOverflow, gen);
      MESA_CHECK(ds.ok());
      f->dataset = std::move(*ds);
      f->mesa = std::make_unique<Mesa>(f->dataset.table, f->dataset.kg.get(),
                                       f->dataset.extraction_columns);
      f->query = CanonicalQueries(DatasetKind::kStackOverflow)[0].query;
      auto pq = f->mesa->PrepareQuery(f->query);
      MESA_CHECK(pq.ok());
      f->pq = std::move(*pq);
      return f;
    }();
    return *fixture;
  }
};

void BM_PrepareQuery(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    auto pq = f.mesa->PrepareQuery(f.query);
    benchmark::DoNotOptimize(pq);
  }
}
BENCHMARK(BM_PrepareQuery)->Unit(benchmark::kMillisecond);

void BM_NextBestAttributeColdCache(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  McimrOptions opts;
  for (auto _ : state) {
    state.PauseTiming();
    // A fresh analysis so per-candidate CMI caches start cold.
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    double score = 0;
    benchmark::DoNotOptimize(NextBestAttribute(
        *pq->analysis, pq->candidate_indices, {}, opts, &score));
  }
}
BENCHMARK(BM_NextBestAttributeColdCache)->Unit(benchmark::kMillisecond);

void BM_CmiGivenPair(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto& a = *f.pq.analysis;
  size_t i = f.pq.candidate_indices[0];
  size_t j = f.pq.candidate_indices[1];
  for (auto _ : state) {
    // Fresh set each iteration defeats the set cache via alternating order.
    benchmark::DoNotOptimize(a.CmiGivenSet({i, j}));
    benchmark::DoNotOptimize(a.CmiGivenSet({j, i}));  // cache hit path
  }
}
BENCHMARK(BM_CmiGivenPair)->Unit(benchmark::kMicrosecond);

void BM_IdentificationFraction(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto& a = *f.pq.analysis;
  std::vector<size_t> set = {f.pq.candidate_indices[0],
                             f.pq.candidate_indices[1]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IdentificationFraction(set));
  }
}
BENCHMARK(BM_IdentificationFraction)->Unit(benchmark::kMicrosecond);

void BM_FullMcimr(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    state.PauseTiming();
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(RunMcimr(*pq->analysis, pq->candidate_indices));
  }
}
BENCHMARK(BM_FullMcimr)->Unit(benchmark::kMillisecond);

void BM_OnlinePrune(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    state.PauseTiming();
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(OnlinePrune(*pq->analysis));
  }
}
BENCHMARK(BM_OnlinePrune)->Unit(benchmark::kMillisecond);

void BM_SubgroupSearch(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto rep = f.mesa->Explain(f.query);
  MESA_CHECK(rep.ok());
  SubgroupOptions opts;
  opts.threshold = 0.05 * rep->base_cmi;
  opts.refinement_attributes = {"Continent", "Gender", "DevType"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.mesa->FindSubgroups(
        f.query, rep->explanation.attribute_names, opts));
  }
}
BENCHMARK(BM_SubgroupSearch)->Unit(benchmark::kMillisecond);

// A 200k-row flights world, augmented from its KG, and one conjunction
// query's context (2,403 rows; arg 1 selects a narrow query's
// context of 16,759 rows).
struct FlightsFixture {
  GeneratedDataset dataset;
  std::unique_ptr<Mesa> mesa;
  const Table* augmented = nullptr;
  QuerySpec queries[2];
  Table contexts[2];

  static FlightsFixture& Get() {
    static FlightsFixture* fixture = [] {
      auto* f = new FlightsFixture();
      GenOptions gen;
      gen.rows = 200000;
      auto ds = MakeDataset(DatasetKind::kFlights, gen);
      MESA_CHECK(ds.ok());
      f->dataset = std::move(*ds);
      f->mesa = std::make_unique<Mesa>(f->dataset.table, f->dataset.kg.get(),
                                       f->dataset.extraction_columns);
      auto augmented = f->mesa->augmented_table();
      MESA_CHECK(augmented.ok());
      f->augmented = *augmented;
      const char* sql[] = {
          "SELECT Origin_city, avg(Departure_delay) FROM flights "
          "WHERE Month = 3 AND Day_of_week = 2 GROUP BY Origin_city",
          "SELECT Origin_city, avg(Departure_delay) FROM flights "
          "WHERE Month = 3 GROUP BY Origin_city"};
      for (int i = 0; i < 2; ++i) {
        auto q = ParseQuery(sql[i]);
        MESA_CHECK(q.ok());
        f->queries[i] = *q;
        auto rows = q->context.MatchingRows(*f->augmented);
        MESA_CHECK(rows.ok());
        f->contexts[i] = f->augmented->TakeRows(*rows);
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_PrepContextMask(benchmark::State& state) {
  FlightsFixture& f = FlightsFixture::Get();
  const Conjunction& context = f.queries[state.range(0)].context;
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.EvaluateMask(*f.augmented));
  }
}
BENCHMARK(BM_PrepContextMask)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PrepTakeRows(benchmark::State& state) {
  FlightsFixture& f = FlightsFixture::Get();
  auto rows = f.queries[state.range(0)].context.MatchingRows(*f.augmented);
  MESA_CHECK(rows.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.augmented->TakeRows(*rows));
  }
}
BENCHMARK(BM_PrepTakeRows)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Every column of the context, memo cleared per pass: the discretize
// stage of one cold query.
void BM_PrepDiscretizeAll(benchmark::State& state) {
  FlightsFixture& f = FlightsFixture::Get();
  const Table& ctx = f.contexts[state.range(0)];
  for (auto _ : state) {
    ClearDiscretizerCache();
    for (const Field& field : ctx.schema().fields()) {
      benchmark::DoNotOptimize(DiscretizeColumn(ctx, field.name));
    }
  }
}
BENCHMARK(BM_PrepDiscretizeAll)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The selection-bias detector over every column with nulls.
void BM_PrepSelectionBias(benchmark::State& state) {
  FlightsFixture& f = FlightsFixture::Get();
  const Table& ctx = f.contexts[state.range(0)];
  const QuerySpec& q = f.queries[state.range(0)];
  for (auto _ : state) {
    info_cache::Clear();
    for (const Field& field : ctx.schema().fields()) {
      const Column* col = *ctx.ColumnByName(field.name);
      if (col->null_count() == 0) continue;
      benchmark::DoNotOptimize(
          DetectSelectionBias(ctx, field.name, q.outcome, q.exposure));
    }
  }
}
BENCHMARK(BM_PrepSelectionBias)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One IPW fit per column with nulls, covariates {exposure, outcome}.
void BM_PrepIpwFits(benchmark::State& state) {
  FlightsFixture& f = FlightsFixture::Get();
  const Table& ctx = f.contexts[state.range(0)];
  const QuerySpec& q = f.queries[state.range(0)];
  IpwOptions ipw;
  ipw.covariates = {q.exposure, q.outcome};
  for (auto _ : state) {
    for (const Field& field : ctx.schema().fields()) {
      const Column* col = *ctx.ColumnByName(field.name);
      if (col->null_count() == 0) continue;
      benchmark::DoNotOptimize(ComputeIpwWeights(ctx, field.name, ipw));
    }
  }
}
BENCHMARK(BM_PrepIpwFits)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mesa

BENCHMARK_MAIN();
