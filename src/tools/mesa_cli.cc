// mesa_cli — command-line front end for the MESA library.
//
// Subcommands:
//   gen      generate one of the four evaluation worlds to CSV + KG files
//   explain  explain an aggregate SQL query over a CSV (+ optional KG)
//
// Examples:
//   mesa_cli gen --dataset so --rows 20000 --out /tmp/so
//   mesa_cli explain --data /tmp/so.csv --kg /tmp/so.kg
//       --extract Country,Continent
//       --query "SELECT Country, avg(Salary) FROM so GROUP BY Country"
//       --subgroups Continent,Gender
//   (the explain example is one command, wrapped for width)
//
// Exit codes: 0 success, 1 usage error, 2 runtime error.

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/baselines/top_k.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "info/info_cache.h"
#include "kg/serialization.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "table/csv.h"

namespace mesa {
namespace {

int Usage() {
  std::fprintf(stderr, R"(usage:
  mesa_cli gen --dataset so|covid|flights|forbes [--rows N] [--seed S] --out PREFIX
      Writes PREFIX.csv (the dataset) and PREFIX.kg (the knowledge graph).

  mesa_cli explain (--data FILE.csv | --snapshot FILE.msnap) --query SQL
      [--kg FILE.kg --extract Col1,Col2]   mine confounders from this KG
                                           (--data form only; a snapshot
                                           already carries its KG)
      [--save-snapshot FILE.msnap]         write the loaded dataset bundle
                                           as a binary snapshot; with no
                                           --query, convert and exit
      [--k N]                              max explanation size (default 5)
      [--hops N]                           KG extraction depth (default 1)
      [--no-prune]                         disable offline+online pruning
      [--subgroups Col1,Col2]              also search unexplained subgroups
      [--baseline topk]                    also print the Top-K baseline
      [--trace]                            show MCIMR's selection steps
      [--metrics[=FILE]]                   dump the metrics/tracing JSON
                                           snapshot (stdout, or to FILE);
                                           includes the info_cache/* hit
                                           and miss counters
      [--info-cache on|off]                sufficient-statistics cache for
                                           the entropy/MI/CMI kernels
                                           (default: $MESA_INFO_CACHE, or
                                           on; see docs/performance.md)
      [--fault-plan PLAN]                  inject KG endpoint faults, e.g.
                                           "seed=7;timeout=0.2;latency=1:5"
                                           (default: $MESA_FAULT_PLAN;
                                           see docs/robustness.md)
      [--min-coverage F]                   fail if fewer than this fraction
                                           of KG key values survive lookup
                                           failures (default 0 = never)
)");
  return 1;
}

// Minimal --flag value parser; flags may appear once. Values attach
// either as the next argument (`--k 5`) or inline (`--k=5`); flags that
// are valid without a value (`--metrics`) default to "true". A flag the
// subcommand does not list, or a non-integer or negative value for one of
// its integer flags, is an error.
class Flags {
 public:
  Flags(int argc, char** argv, int start, const std::set<std::string>& known,
        const std::set<std::string>& integers) {
    for (int i = start; i < argc && error_.empty(); ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + arg;
        break;
      }
      std::string name = arg.substr(2);
      std::string value = "true";
      size_t eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else if (name != "no-prune" && name != "trace" && name != "metrics") {
        if (i + 1 >= argc) {
          error_ = "flag --" + name + " needs a value";
          break;
        }
        value = argv[++i];
      }
      if (known.count(name) == 0) {
        error_ = "unknown flag --" + name;
      } else if (integers.count(name) > 0) {
        int64_t v = 0;
        if (!ParseInt64(value, &v) || v < 0) {
          error_ = "flag --" + name + " needs a non-negative integer, got '" +
                   value + "'";
        }
      }
      values_[name] = value;
    }
  }

  const std::string& error() const { return error_; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }
  // Integer flags were validated at parse time.
  int64_t GetInt(const std::string& name, int64_t dflt) const {
    auto it = values_.find(name);
    if (it == values_.end()) return dflt;
    int64_t v = dflt;
    ParseInt64(it->second, &v);
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int RunGen(const Flags& flags) {
  std::string name = ToLower(flags.Get("dataset"));
  DatasetKind kind;
  if (name == "so") {
    kind = DatasetKind::kStackOverflow;
  } else if (name == "covid") {
    kind = DatasetKind::kCovid;
  } else if (name == "flights") {
    kind = DatasetKind::kFlights;
  } else if (name == "forbes") {
    kind = DatasetKind::kForbes;
  } else {
    std::fprintf(stderr, "unknown --dataset '%s'\n", name.c_str());
    return 1;
  }
  std::string out = flags.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "--out PREFIX is required\n");
    return 1;
  }
  GenOptions gen;
  gen.rows = static_cast<size_t>(flags.GetInt("rows", 0));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 43));
  auto ds = MakeDataset(kind, gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 ds.status().ToString().c_str());
    return 2;
  }
  Status csv = WriteCsvFile(ds->table, out + ".csv");
  Status kg = WriteKgFile(*ds->kg, out + ".kg");
  if (!csv.ok() || !kg.ok()) {
    std::fprintf(stderr, "write failed: %s %s\n", csv.ToString().c_str(),
                 kg.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s.csv (%zu rows) and %s.kg (%zu entities, %zu triples)\n",
              out.c_str(), ds->table.num_rows(), out.c_str(),
              ds->kg->num_entities(), ds->kg->num_triples());
  std::printf("extraction columns: ");
  for (size_t i = 0; i < ds->extraction_columns.size(); ++i) {
    std::printf("%s%s", i ? "," : "", ds->extraction_columns[i].c_str());
  }
  std::printf("\n");
  return 0;
}

int RunExplain(const Flags& flags) {
  std::string data = flags.Get("data");
  std::string snapshot_path = flags.Get("snapshot");
  std::string save_snapshot = flags.Get("save-snapshot");
  std::string sql = flags.Get("query");
  if (data.empty() == snapshot_path.empty()) {
    std::fprintf(stderr, "exactly one of --data / --snapshot is required\n");
    return 1;
  }
  if (sql.empty() && save_snapshot.empty()) {
    std::fprintf(stderr,
                 "--query is required (omit it only with --save-snapshot "
                 "to just convert)\n");
    return 1;
  }

  Table table;
  TripleStore kg;
  std::shared_ptr<TripleStore> kg_from_snapshot;
  const TripleStore* kg_ptr = nullptr;
  std::vector<std::string> extract;

  if (!snapshot_path.empty()) {
    if (flags.Has("kg") || flags.Has("extract")) {
      std::fprintf(stderr,
                   "--kg/--extract conflict with --snapshot: a snapshot "
                   "already carries its KG and extraction columns\n");
      return 1;
    }
    auto reader = snapshot::SnapshotReader::Open(snapshot_path);
    if (!reader.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", snapshot_path.c_str(),
                   reader.status().ToString().c_str());
      return 2;
    }
    auto loaded_table = reader->ReadTable();
    if (!loaded_table.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", snapshot_path.c_str(),
                   loaded_table.status().ToString().c_str());
      return 2;
    }
    table = std::move(*loaded_table);
    if (reader->has_kg()) {
      auto loaded_kg = reader->ReadKg();
      if (!loaded_kg.ok()) {
        std::fprintf(stderr, "cannot read %s: %s\n", snapshot_path.c_str(),
                     loaded_kg.status().ToString().c_str());
        return 2;
      }
      kg_from_snapshot = std::move(*loaded_kg);
      kg_ptr = kg_from_snapshot.get();
      extract = reader->extraction_columns();
    }
  } else {
    auto loaded_table = ReadCsvFile(data);
    if (!loaded_table.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", data.c_str(),
                   loaded_table.status().ToString().c_str());
      return 2;
    }
    table = std::move(*loaded_table);
    if (flags.Has("kg")) {
      auto loaded = ReadKgFile(flags.Get("kg"));
      if (!loaded.ok()) {
        std::fprintf(stderr, "cannot read KG: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      kg = std::move(*loaded);
      kg_ptr = &kg;
      for (auto& col : Split(flags.Get("extract"), ',')) {
        if (!col.empty()) extract.push_back(col);
      }
      if (extract.empty()) {
        std::fprintf(stderr, "--kg needs --extract Col1,Col2\n");
        return 1;
      }
    }
  }

  if (!save_snapshot.empty()) {
    snapshot::SnapshotWriter writer;
    writer.SetTable(&table);
    if (kg_ptr != nullptr) writer.SetKg(kg_ptr);
    writer.SetExtractionColumns(extract);
    Status written = writer.WriteFile(save_snapshot);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write snapshot: %s\n",
                   written.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s (%zu rows, %zu columns%s)\n", save_snapshot.c_str(),
                table.num_rows(), table.num_columns(),
                kg_ptr != nullptr ? ", with KG" : "");
    if (sql.empty()) return 0;
  }

  if (flags.Has("info-cache")) {
    std::string v = flags.Get("info-cache");
    if (v == "on" || v == "off") {
      info_cache::SetEnabled(v == "on");
    } else {
      std::fprintf(stderr, "--info-cache must be 'on' or 'off'\n");
      return 1;
    }
  }

  MesaOptions options;
  options.extraction.hops = static_cast<size_t>(flags.GetInt("hops", 1));
  options.mcimr.max_size = static_cast<size_t>(flags.GetInt("k", 5));
  if (flags.Has("no-prune")) {
    options.enable_offline_pruning = false;
    options.enable_online_pruning = false;
  }
  options.fault_plan = flags.Get("fault-plan");
  if (flags.Has("min-coverage")) {
    double floor = 0.0;
    if (!ParseDouble(flags.Get("min-coverage"), &floor) || floor < 0.0 ||
        floor > 1.0) {
      std::fprintf(stderr, "--min-coverage must be a fraction in [0,1]\n");
      return 1;
    }
    options.extraction.min_coverage = floor;
  }

  Mesa mesa(std::move(table), kg_ptr, extract, options);
  auto query = ParseQuery(sql);
  if (!query.ok()) {
    std::fprintf(stderr, "bad query: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  auto report = mesa.Explain(*query);
  if (!report.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  ReportFormatOptions fmt;
  fmt.show_trace = flags.Has("trace");
  std::fputs(FormatReport(*report, fmt).c_str(), stdout);

  if (flags.Get("baseline") == "topk") {
    auto pq = mesa.PrepareQuery(*query);
    if (pq.ok()) {
      Explanation topk = RunTopK(*pq->analysis, pq->candidate_indices,
                                 options.mcimr.max_size);
      std::printf("top-k baseline: %s (I=%.4f)\n", topk.ToString().c_str(),
                  topk.final_cmi);
    }
  }

  if (flags.Has("subgroups")) {
    SubgroupOptions sg;
    sg.threshold = 0.05 * report->base_cmi;
    for (auto& col : Split(flags.Get("subgroups"), ',')) {
      if (!col.empty()) sg.refinement_attributes.push_back(col);
    }
    auto groups = mesa.FindSubgroups(*query,
                                     report->explanation.attribute_names, sg);
    if (groups.ok()) std::fputs(FormatSubgroups(*groups).c_str(), stdout);
  }

  // --metrics / --metrics=FILE: one JSON object with every counter and
  // span distribution recorded during this run (empty when the build has
  // MESA_METRICS=OFF; see docs/observability.md for the schema).
  if (flags.Has("metrics")) {
    std::string json = metrics::SnapshotJson();
    std::string path = flags.Get("metrics");
    if (path.empty() || path == "true") {
      std::printf("%s\n", json.c_str());
    } else {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::set<std::string> known, integers;
  if (command == "gen") {
    known = {"dataset", "rows", "seed", "out"};
    integers = {"rows", "seed"};
  } else if (command == "explain") {
    known = {"data",     "snapshot",   "save-snapshot", "query",
             "kg",       "extract",    "k",             "hops",
             "no-prune", "subgroups",  "baseline",      "trace",
             "metrics",  "info-cache", "fault-plan",    "min-coverage"};
    integers = {"k", "hops"};
  } else {
    return Usage();
  }
  Flags flags(argc, argv, 2, known, integers);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return Usage();
  }
  return command == "gen" ? RunGen(flags) : RunExplain(flags);
}

}  // namespace
}  // namespace mesa

int main(int argc, char** argv) { return mesa::Main(argc, argv); }
