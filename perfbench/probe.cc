// perfbench_probe — in-process layer probe of the perfbench benchmark.
//
// Calls the library's public functions directly so the benchmark can cost
// each layer without spans inside the library:
//
//   perfbench_probe oracle PLAN.json
//       Loads the plan's datasets into a serve::Router and answers every
//       request serially. Prints one reply line per request of the first
//       pass, then one summary line {"handle_ms":[...]} holding the
//       in-process Router::Handle time of each request of the last pass.
//   perfbench_probe trace PLAN.json
//       Runs the explain pipeline as a chain of public calls in Mesa's
//       order at each pool size of the plan, with a span around every
//       call; at the last pool size the request loop also runs with
//       recording off, before and after, to cost the tracing. Checks that
//       each composed report is byte-identical to Mesa::Explain
//       (+ FindSubgroups). Writes the spans as JSON lines to the plan's
//       "spans_out" and prints one JSON summary line.
//
// PLAN.json:
//   {"datasets": [{"name": "f", "csv": "f.csv", "kg": "f.kg",
//                  "extract": ["Airline", "Origin_city"]}
//                 | {"name": "f", "snapshot": "f.msnap"}],
//    "requests": [<explain request objects, as sent to mesa_serve>],
//    "warm": [<requests answered once before the counted loop>],
//    "fresh_process": false,     // clear every cache before each request
//    "thread_counts": [1, 4],    // trace: pool sizes
//    "threads": 1, "passes": 1,  // oracle: pool size, passes over requests
//    "max_inflight": 1,          // oracle: admission cap
//    "spans_out": "spans.jsonl"}
//
// Exit codes: 0 success, 1 usage error, 2 runtime error, 3 report mismatch.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/candidates.h"
#include "core/mcimr.h"
#include "core/mesa.h"
#include "core/pruning.h"
#include "core/report_format.h"
#include "core/responsibility.h"
#include "core/subgroups.h"
#include "info/contingency.h"
#include "info/info_cache.h"
#include "kg/endpoint.h"
#include "kg/extractor.h"
#include "kg/resilient_client.h"
#include "kg/serialization.h"
#include "missing/ipw.h"
#include "missing/selection_bias.h"
#include "query/join.h"
#include "query/sql_parser.h"
#include "serve/json.h"
#include "serve/router.h"
#include "snapshot/reader.h"
#include "stats/discretizer.h"
#include "table/csv.h"

namespace mesa {
namespace {

using serve::JsonValue;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU time of the whole process (every pool worker included).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// In-memory span recorder: spans are written out only when the run ends.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::string pass;
    std::string request;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    double cpu_s = 0.0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_pass(std::string pass) { pass_ = std::move(pass); }
  void set_request(std::string request) { request_ = std::move(request); }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    Record r;
    r.name = name;
    r.pass = pass_;
    r.request = request_;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.cpu_s = ProcessCpuSeconds();
    r.start_ns = NowNs();
    records_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    Record& r = records_[index];
    r.end_ns = NowNs();
    r.cpu_s = ProcessCpuSeconds() - r.cpu_s;
    stack_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      JsonValue line = JsonValue::Object();
      line.Set("id", JsonValue::Number(static_cast<double>(i)));
      line.Set("parent", JsonValue::Number(r.parent));
      line.Set("name", JsonValue::Str(r.name));
      line.Set("pass", JsonValue::Str(r.pass));
      line.Set("request", JsonValue::Str(r.request));
      line.Set("start_ns", JsonValue::Number(static_cast<double>(r.start_ns)));
      line.Set("end_ns", JsonValue::Number(static_cast<double>(r.end_ns)));
      line.Set("cpu_s", JsonValue::Number(r.cpu_s));
      out << line.Serialize() << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = true;
  std::string pass_;
  std::string request_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~Span() { tracer_.End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// One resident dataset, preprocessed exactly as Mesa::PreprocessLocked does.
struct Dataset {
  std::string name;
  Table base;
  std::shared_ptr<TripleStore> kg;
  std::vector<std::string> extract;
  Table augmented;
  std::vector<std::string> kg_columns;
  ExtractionStats stats;
  std::vector<std::string> pool;  // offline-pruning survivors
};

Status LoadDataset(const JsonValue& spec, const MesaOptions& options,
                   Tracer& tracer, Dataset* ds) {
  ds->name = spec.GetString("name");
  tracer.set_request("load:" + ds->name);
  Span load(tracer, "load");
  const std::string snapshot_path = spec.GetString("snapshot");
  if (!snapshot_path.empty()) {
    Span span(tracer, "snapshot.read");
    MESA_ASSIGN_OR_RETURN(snapshot::SnapshotReader reader,
                          snapshot::SnapshotReader::Open(snapshot_path));
    MESA_ASSIGN_OR_RETURN(ds->base, reader.ReadTable());
    if (reader.has_kg()) {
      MESA_ASSIGN_OR_RETURN(ds->kg, reader.ReadKg());
      ds->extract = reader.extraction_columns();
    }
  } else {
    {
      Span span(tracer, "table.csv_read");
      MESA_ASSIGN_OR_RETURN(ds->base, ReadCsvFile(spec.GetString("csv")));
    }
    const std::string kg_path = spec.GetString("kg");
    if (!kg_path.empty()) {
      Span span(tracer, "kg.read");
      MESA_ASSIGN_OR_RETURN(TripleStore kg, ReadKgFile(kg_path));
      ds->kg = std::make_shared<TripleStore>(std::move(kg));
    }
    if (const JsonValue* cols = spec.Find("extract")) {
      for (const JsonValue& c : cols->elements()) {
        ds->extract.push_back(c.as_string());
      }
    }
  }

  // Extraction and join, column by column, as AugmentTableFromKg does it
  // over the resilient client Mesa wires in front of a local store.
  std::vector<Table> entity_tables;
  ds->augmented = ds->base;
  if (ds->kg != nullptr && !ds->extract.empty()) {
    ResilientKgClient client(std::make_shared<LocalEndpoint>(ds->kg.get()),
                             options.kg_client);
    for (const std::string& column : ds->extract) {
      ExtractionStats stats;
      Result<Table> extracted = Status::Internal("not run");
      {
        Span span(tracer, "kg.extract");
        extracted = ExtractAttributes(ds->base, column, &client,
                                      options.extraction, &stats);
      }
      MESA_RETURN_IF_ERROR(extracted.status());
      ds->stats.values_total += stats.values_total;
      ds->stats.values_linked += stats.values_linked;
      ds->stats.values_ambiguous += stats.values_ambiguous;
      ds->stats.values_not_found += stats.values_not_found;
      ds->stats.values_failed += stats.values_failed;
      ds->stats.lookups_retried += stats.lookups_retried;

      Schema renamed_schema;
      std::vector<Column> renamed_cols;
      MESA_RETURN_IF_ERROR(
          renamed_schema.AddField({column, DataType::kString}));
      renamed_cols.push_back(extracted->column(0));
      std::vector<std::string> final_names;
      for (size_t c = 1; c < extracted->num_columns(); ++c) {
        std::string name = extracted->schema().field(c).name;
        if (ds->augmented.schema().Contains(name) ||
            std::find(ds->kg_columns.begin(), ds->kg_columns.end(), name) !=
                ds->kg_columns.end()) {
          name = column + "." + name;
        }
        MESA_RETURN_IF_ERROR(renamed_schema.AddField(
            {name, extracted->schema().field(c).type}));
        renamed_cols.push_back(extracted->column(c));
        final_names.push_back(name);
      }
      MESA_ASSIGN_OR_RETURN(
          Table renamed,
          Table::Make(std::move(renamed_schema), std::move(renamed_cols)));
      {
        Span span(tracer, "query.join");
        MESA_ASSIGN_OR_RETURN(
            ds->augmented, HashJoin(ds->augmented, column, renamed, column,
                                    {JoinType::kLeft, column + "."}));
      }
      for (auto& name : final_names) ds->kg_columns.push_back(std::move(name));
      entity_tables.push_back(std::move(renamed));
    }
    ds->stats.attributes_extracted = ds->kg_columns.size();
  }

  Span span(tracer, "core.offline_prune");
  std::vector<std::string> base_names;
  for (const auto& f : ds->base.schema().fields()) base_names.push_back(f.name);
  MESA_ASSIGN_OR_RETURN(
      PruneResult result,
      OfflinePrune(ds->augmented, base_names, options.offline_prune));
  for (const Table& et : entity_tables) {
    std::vector<std::string> attr_names;
    for (size_t c = 1; c < et.num_columns(); ++c) {
      attr_names.push_back(et.schema().field(c).name);
    }
    MESA_ASSIGN_OR_RETURN(PruneResult pr,
                          OfflinePrune(et, attr_names, options.offline_prune));
    for (auto& name : pr.kept) result.kept.push_back(std::move(name));
  }
  ds->pool = std::move(result.kept);
  return Status::OK();
}

struct Request {
  std::string id;
  std::string dataset;
  std::string sql;
  std::vector<std::string> subgroups;
};

std::vector<Request> ParseRequests(const JsonValue* list,
                                   const std::string& prefix) {
  std::vector<Request> out;
  if (list == nullptr) return out;
  for (const JsonValue& r : list->elements()) {
    Request req;
    req.id = prefix + std::to_string(out.size());
    req.dataset = r.GetString("dataset");
    req.sql = r.GetString("sql");
    if (const JsonValue* sg = r.Find("subgroups")) {
      for (const JsonValue& c : sg->elements()) {
        req.subgroups.push_back(c.as_string());
      }
    }
    out.push_back(std::move(req));
  }
  return out;
}

SubgroupOptions MakeSubgroupOptions(const Request& req, double base_cmi) {
  SubgroupOptions sg;
  sg.threshold = 0.05 * base_cmi;
  sg.refinement_attributes = req.subgroups;
  return sg;
}

struct RequestCounts {
  size_t candidates_offline = 0;
  size_t candidates_online = 0;
  size_t estimator_evals = 0;
  size_t discretize_calls = 0;
  size_t ipw_fits = 0;
};

// The body of Mesa::Explain (plus the daemon's subgroup step), one public
// call per span. Returns the reply text mesa_serve would send.
Result<std::string> ComposedExplain(const Dataset& ds, const Request& req,
                                    const MesaOptions& options, Tracer& tracer,
                                    RequestCounts* counts) {
  MESA_ASSIGN_OR_RETURN(QuerySpec query, ParseQuery(req.sql));
  tracer.set_request(req.id);
  Span root(tracer, "request");
  {
    Span span(tracer, "query.context_filter");
    MESA_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                          query.context.MatchingRows(ds.augmented));
    Table context = ds.augmented.TakeRows(rows);
    (void)context;
  }
  Result<QueryAnalysis> prepared = Status::Internal("not run");
  {
    Span span(tracer, "core.prepare");
    prepared = QueryAnalysis::Prepare(ds.augmented, query, ds.pool,
                                      ds.kg_columns, options.prepare);
  }
  MESA_RETURN_IF_ERROR(prepared.status());
  const QueryAnalysis& qa = *prepared;
  OnlinePruneResult online;
  {
    Span span(tracer, "core.online_prune");
    online = OnlinePrune(qa, options.online_prune);
  }
  MesaReport report;
  report.query = query;
  report.candidates_total = ds.augmented.num_columns();
  report.candidates_after_offline = ds.pool.size();
  report.candidates_after_online = online.kept_indices.size();
  report.pruned_online = online.pruned;
  report.extraction = ds.stats;
  {
    Span span(tracer, "core.mcimr");
    report.explanation = RunMcimr(qa, online.kept_indices, options.mcimr);
  }
  {
    Span span(tracer, "core.responsibility");
    report.responsibilities =
        ComputeResponsibilities(qa, report.explanation.attribute_indices);
  }
  report.base_cmi = report.explanation.base_cmi;
  report.final_cmi = report.explanation.final_cmi;
  std::string text;
  {
    Span span(tracer, "core.report");
    text = FormatReport(report);
  }
  if (!req.subgroups.empty()) {
    Result<std::vector<UnexplainedSubgroup>> groups =
        Status::Internal("not run");
    {
      Span span(tracer, "core.subgroups");
      groups = FindUnexplainedSubgroups(
          ds.augmented, query, report.explanation.attribute_names,
          MakeSubgroupOptions(req, report.base_cmi));
    }
    MESA_RETURN_IF_ERROR(groups.status());
    Span span(tracer, "core.report");
    text += FormatSubgroups(*groups);
  }
  counts->candidates_offline = report.candidates_after_offline;
  counts->candidates_online = report.candidates_after_online;
  counts->estimator_evals = qa.estimator_evaluations();
  return text;
}

CodedVariable Coded(Discretized d) {
  CodedVariable v;
  v.codes = std::move(d.codes);
  v.cardinality = d.cardinality;
  return v;
}

void ClearCaches() {
  ClearDiscretizerCache();
  info_cache::Clear();
}

// The three candidate-preparation stages of QueryAnalysis::Prepare, each
// timed from cold caches on the query's context table.
Status ProbePreparation(const Dataset& ds, const Request& req,
                        const MesaOptions& options, Tracer& tracer,
                        RequestCounts* counts) {
  MESA_ASSIGN_OR_RETURN(QuerySpec query, ParseQuery(req.sql));
  MESA_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                        query.context.MatchingRows(ds.augmented));
  const Table context = ds.augmented.TakeRows(rows);
  std::vector<std::string> names;
  for (const std::string& name : ds.pool) {
    if (name == query.outcome || query.IsExposure(name)) continue;
    names.push_back(name);
  }
  const DiscretizerOptions& disc = options.prepare.discretizer;
  tracer.set_request(req.id);
  Span root(tracer, "probe");

  ClearCaches();
  CodedVariable outcome;
  std::vector<CodedVariable> components;
  {
    Span span(tracer, "stats.discretize");
    MESA_ASSIGN_OR_RETURN(Discretized o,
                          DiscretizeColumn(context, query.outcome, disc));
    outcome = Coded(std::move(o));
    for (const std::string& name : query.AllExposures()) {
      MESA_ASSIGN_OR_RETURN(Discretized t,
                            DiscretizeColumn(context, name, disc));
      components.push_back(Coded(std::move(t)));
    }
    for (const std::string& name : names) {
      MESA_RETURN_IF_ERROR(DiscretizeColumn(context, name, disc).status());
    }
  }
  counts->discretize_calls = 1 + components.size() + names.size();
  std::vector<const CodedVariable*> ptrs;
  for (const auto& c : components) ptrs.push_back(&c);
  const CodedVariable exposure = CombineAll(ptrs, context.num_rows());

  if (!options.prepare.handle_selection_bias) return Status::OK();
  ClearCaches();
  std::vector<std::string> biased;
  {
    Span span(tracer, "missing.selection_bias");
    for (const std::string& name : names) {
      MESA_ASSIGN_OR_RETURN(const Column* col, context.ColumnByName(name));
      if (col->null_count() == 0) continue;
      SelectionBiasOptions bias = options.prepare.bias;
      bias.outcome_codes = &outcome;
      bias.exposure_codes = &exposure;
      MESA_ASSIGN_OR_RETURN(
          SelectionBiasReport report,
          DetectSelectionBias(context, name, query.outcome, query.exposure,
                              bias));
      if (report.biased) biased.push_back(name);
    }
  }
  ClearCaches();
  IpwOptions ipw = options.prepare.ipw;
  if (ipw.covariates.empty()) ipw.covariates = {query.exposure, query.outcome};
  {
    Span span(tracer, "missing.ipw");
    for (const std::string& name : biased) {
      MESA_RETURN_IF_ERROR(ComputeIpwWeights(context, name, ipw).status());
    }
  }
  counts->ipw_fits = biased.size();
  ClearCaches();
  return Status::OK();
}

struct CacheCounters {
  DiscretizerCacheStats disc;
  info_cache::Stats info;
};

CacheCounters ReadCacheCounters() {
  return {GetDiscretizerCacheStats(), info_cache::GetStats()};
}

JsonValue CacheDelta(const CacheCounters& a, const CacheCounters& b) {
  JsonValue out = JsonValue::Object();
  auto num = [](uint64_t v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  out.Set("discretizer_hits", num(b.disc.hits - a.disc.hits));
  out.Set("discretizer_misses", num(b.disc.misses - a.disc.misses));
  out.Set("scalar_hits", num(b.info.scalar_hits - a.info.scalar_hits));
  out.Set("scalar_misses", num(b.info.scalar_misses - a.info.scalar_misses));
  out.Set("cube_hits", num(b.info.cube_hits - a.info.cube_hits));
  out.Set("cube_misses", num(b.info.cube_misses - a.info.cube_misses));
  out.Set("evictions",
          num(b.info.scalar_evictions + b.info.cube_evictions -
              a.info.scalar_evictions - a.info.cube_evictions));
  return out;
}

const Dataset* FindDataset(const std::vector<Dataset>& datasets,
                           const std::string& name) {
  for (const Dataset& ds : datasets) {
    if (ds.name == name) return &ds;
  }
  return nullptr;
}

// "t4" for a pool of 4 (built by append: GCC 12 warns falsely on "t" + s).
std::string PassName(size_t threads) {
  std::string name = "t";
  name += std::to_string(threads);
  return name;
}

struct Pass {
  JsonValue summary = JsonValue::Object();
  std::vector<std::vector<std::string>> replies;  // per loop, per request
  double traced_loop_s = 0.0;
  double untraced_loop_s = 0.0;  // mean of the loops around the traced one
};

// One pass at one pool size: load, then the request loop, then the
// cold-cache preparation probes. With `overhead`, the traced loop is
// bracketed by two untraced ones, so the tracing cost is measured without
// an ordering bias in either direction.
Result<Pass> RunPass(const JsonValue& plan, const MesaOptions& options,
                     size_t threads, bool overhead, Tracer& tracer) {
  SetNumThreads(threads);
  ClearCaches();
  tracer.set_enabled(true);
  tracer.set_pass(PassName(threads));

  std::vector<Dataset> datasets;
  for (const JsonValue& spec : plan.Find("datasets")->elements()) {
    datasets.emplace_back();
    MESA_RETURN_IF_ERROR(LoadDataset(spec, options, tracer, &datasets.back()));
  }
  const std::vector<Request> warm = ParseRequests(plan.Find("warm"), "w");
  const std::vector<Request> requests =
      ParseRequests(plan.Find("requests"), "q");
  const bool fresh_process = plan.GetBool("fresh_process");
  for (const Request& req : warm) {
    if (FindDataset(datasets, req.dataset) == nullptr) {
      return Status::NotFound("dataset " + req.dataset);
    }
  }
  for (const Request& req : requests) {
    if (FindDataset(datasets, req.dataset) == nullptr) {
      return Status::NotFound("dataset " + req.dataset);
    }
  }

  Pass pass;
  std::vector<RequestCounts> counts(requests.size());
  // Every loop starts from the same cache state: cleared, then warmed.
  auto loop = [&](bool traced) -> Result<double> {
    ClearCaches();
    tracer.set_enabled(false);
    RequestCounts ignored;
    for (const Request& req : warm) {
      MESA_RETURN_IF_ERROR(ComposedExplain(*FindDataset(datasets, req.dataset),
                                           req, options, tracer, &ignored)
                               .status());
    }
    tracer.set_enabled(traced);
    std::vector<std::string> replies;
    const CacheCounters before = ReadCacheCounters();
    const int64_t start = NowNs();
    for (size_t i = 0; i < requests.size(); ++i) {
      if (fresh_process) ClearCaches();
      MESA_ASSIGN_OR_RETURN(
          std::string text,
          ComposedExplain(*FindDataset(datasets, requests[i].dataset),
                          requests[i], options, tracer,
                          traced ? &counts[i] : &ignored));
      replies.push_back(std::move(text));
    }
    const double wall_s = 1e-9 * static_cast<double>(NowNs() - start);
    if (traced) pass.summary.Set("cache", CacheDelta(before,
                                                     ReadCacheCounters()));
    pass.replies.push_back(std::move(replies));
    tracer.set_enabled(true);
    return wall_s;
  };
  double untraced_s = 0.0;
  if (overhead) {
    MESA_ASSIGN_OR_RETURN(double before_s, loop(false));
    untraced_s += before_s;
  }
  MESA_ASSIGN_OR_RETURN(pass.traced_loop_s, loop(true));
  if (overhead) {
    MESA_ASSIGN_OR_RETURN(double after_s, loop(false));
    pass.untraced_loop_s = 0.5 * (untraced_s + after_s);
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    MESA_RETURN_IF_ERROR(
        ProbePreparation(*FindDataset(datasets, requests[i].dataset),
                         requests[i], options, tracer, &counts[i]));
  }

  size_t values_failed = 0;
  for (const Dataset& ds : datasets) values_failed += ds.stats.values_failed;
  JsonValue per_request = JsonValue::Array();
  for (size_t i = 0; i < requests.size(); ++i) {
    JsonValue r = JsonValue::Object();
    auto num = [](size_t v) {
      return JsonValue::Number(static_cast<double>(v));
    };
    r.Set("id", JsonValue::Str(requests[i].id));
    r.Set("candidates_offline", num(counts[i].candidates_offline));
    r.Set("candidates_online", num(counts[i].candidates_online));
    r.Set("estimator_evals", num(counts[i].estimator_evals));
    r.Set("discretize_calls", num(counts[i].discretize_calls));
    r.Set("ipw_fits", num(counts[i].ipw_fits));
    per_request.Append(std::move(r));
  }
  pass.summary.Set("pass", JsonValue::Str(PassName(threads)));
  pass.summary.Set("threads", JsonValue::Number(static_cast<double>(threads)));
  pass.summary.Set("loop_wall_s", JsonValue::Number(pass.traced_loop_s));
  pass.summary.Set("values_failed",
                   JsonValue::Number(static_cast<double>(values_failed)));
  pass.summary.Set("requests", std::move(per_request));
  return pass;
}

// Mesa's own answer for every request, for the byte-identity check.
Result<std::vector<std::string>> MesaReplies(const JsonValue& plan,
                                             const MesaOptions& options) {
  Tracer quiet;
  quiet.set_enabled(false);
  std::vector<std::unique_ptr<Dataset>> loaded;
  std::map<std::string, std::unique_ptr<Mesa>> instances;
  for (const JsonValue& spec : plan.Find("datasets")->elements()) {
    // Only the raw table and KG are reused; Mesa preprocesses on its own.
    auto ds = std::make_unique<Dataset>();
    MESA_RETURN_IF_ERROR(LoadDataset(spec, options, quiet, ds.get()));
    instances[ds->name] = std::make_unique<Mesa>(ds->base, ds->kg.get(),
                                                 ds->extract, options);
    loaded.push_back(std::move(ds));
  }
  std::vector<std::string> out;
  for (const Request& req : ParseRequests(plan.Find("requests"), "q")) {
    auto it = instances.find(req.dataset);
    if (it == instances.end()) {
      return Status::NotFound("dataset " + req.dataset);
    }
    MESA_ASSIGN_OR_RETURN(QuerySpec query, ParseQuery(req.sql));
    MESA_ASSIGN_OR_RETURN(MesaReport report, it->second->Explain(query));
    std::string text = FormatReport(report);
    if (!req.subgroups.empty()) {
      MESA_ASSIGN_OR_RETURN(
          std::vector<UnexplainedSubgroup> groups,
          it->second->FindSubgroups(query, report.explanation.attribute_names,
                                    MakeSubgroupOptions(req, report.base_cmi)));
      text += FormatSubgroups(groups);
    }
    out.push_back(std::move(text));
  }
  return out;
}

int RunTrace(const JsonValue& plan) {
  const MesaOptions options;
  Tracer tracer;
  JsonValue passes = JsonValue::Array();
  std::vector<std::vector<std::string>> composed;  // per loop, per request
  double traced_loop_s = 0.0;
  double untraced_loop_s = 0.0;
  const std::vector<JsonValue>& counts = plan.Find("thread_counts")->elements();
  for (size_t p = 0; p < counts.size(); ++p) {
    // The tracing overhead is measured at the last (largest) pool size.
    const bool last = p + 1 == counts.size();
    Result<Pass> pass =
        RunPass(plan, options, static_cast<size_t>(counts[p].as_number()),
                last, tracer);
    if (!pass.ok()) {
      std::fprintf(stderr, "trace pass failed: %s\n",
                   pass.status().ToString().c_str());
      return 2;
    }
    for (auto& replies : pass->replies) composed.push_back(std::move(replies));
    traced_loop_s = pass->traced_loop_s;
    untraced_loop_s = pass->untraced_loop_s;
    passes.Append(std::move(pass->summary));
  }
  ClearCaches();
  Result<std::vector<std::string>> reference = MesaReplies(plan, options);
  if (!reference.ok()) {
    std::fprintf(stderr, "Mesa::Explain failed: %s\n",
                 reference.status().ToString().c_str());
    return 2;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < reference->size(); ++i) {
    for (const std::vector<std::string>& replies : composed) {
      if (replies[i] == (*reference)[i]) continue;
      ++mismatches;
      std::fprintf(stderr, "request %zu: composed report differs from "
                   "Mesa::Explain\n--- composed\n%s--- Mesa\n%s", i,
                   replies[i].c_str(), (*reference)[i].c_str());
    }
  }
  if (!tracer.Write(plan.GetString("spans_out"))) {
    std::fprintf(stderr, "cannot write spans\n");
    return 2;
  }
  JsonValue out = JsonValue::Object();
  out.Set("passes", std::move(passes));
  out.Set("traced_loop_s", JsonValue::Number(traced_loop_s));
  out.Set("untraced_loop_s", JsonValue::Number(untraced_loop_s));
  out.Set("requests",
          JsonValue::Number(static_cast<double>(reference->size())));
  out.Set("mismatches", JsonValue::Number(static_cast<double>(mismatches)));
  out.Set("compiler", JsonValue::Str(__VERSION__));
  std::printf("%s\n", out.Serialize().c_str());
  return mismatches == 0 ? 0 : 3;
}

int RunOracle(const JsonValue& plan) {
  SetNumThreads(static_cast<size_t>(plan.GetNumber("threads", 1)));
  serve::RouterOptions router_options;
  router_options.max_inflight =
      static_cast<size_t>(plan.GetNumber("max_inflight", 1));
  serve::Router router(router_options);
  for (const JsonValue& spec : plan.Find("datasets")->elements()) {
    serve::Router::DatasetSpec ds;
    ds.name = spec.GetString("name");
    ds.snapshot_path = spec.GetString("snapshot");
    ds.csv_path = spec.GetString("csv");
    ds.kg_path = spec.GetString("kg");
    if (const JsonValue* cols = spec.Find("extract")) {
      for (const JsonValue& c : cols->elements()) {
        ds.extraction_columns.push_back(c.as_string());
      }
    }
    Status added = router.AddDataset(ds);
    if (!added.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", ds.name.c_str(),
                   added.ToString().c_str());
      return 2;
    }
  }
  Status warmed = router.WarmStart();
  if (!warmed.ok()) {
    std::fprintf(stderr, "warm start failed: %s\n", warmed.ToString().c_str());
    return 2;
  }
  const JsonValue* requests = plan.Find("requests");
  const int passes = std::max(1, static_cast<int>(plan.GetNumber("passes", 1)));
  JsonValue handle_ms = JsonValue::Array();
  for (int p = 0; p < passes; ++p) {
    for (const JsonValue& request : requests->elements()) {
      const std::string line = request.Serialize();
      const int64_t start = NowNs();
      serve::Router::HandleResult result = router.Handle(line);
      const double ms = 1e-6 * static_cast<double>(NowNs() - start);
      if (p == 0) std::printf("%s\n", result.reply_line.c_str());
      if (p == passes - 1) handle_ms.Append(JsonValue::Number(ms));
    }
  }
  JsonValue summary = JsonValue::Object();
  summary.Set("handle_ms", std::move(handle_ms));
  std::printf("%s\n", summary.Serialize().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_probe oracle|trace PLAN.json\n");
    return 1;
  }
  std::ifstream in(argv[2]);
  std::stringstream text;
  text << in.rdbuf();
  Result<JsonValue> plan = JsonValue::Parse(text.str());
  if (!in || !plan.ok() || plan->Find("datasets") == nullptr ||
      plan->Find("requests") == nullptr) {
    std::fprintf(stderr, "cannot read plan %s\n", argv[2]);
    return 1;
  }
  const std::string mode = argv[1];
  if (mode == "oracle") return RunOracle(*plan);
  if (mode == "trace" && plan->Find("thread_counts") != nullptr) {
    return RunTrace(*plan);
  }
  std::fprintf(stderr, "unknown mode or incomplete plan\n");
  return 1;
}

}  // namespace
}  // namespace mesa

int main(int argc, char** argv) { return mesa::Main(argc, argv); }
