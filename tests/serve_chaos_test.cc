// Chaos harness for the mesa_serve daemon (docs/serving.md +
// docs/robustness.md): the daemon inherits the library's fault-injection
// and resilience machinery, so the contracts proven for one-shot runs in
// kg_chaos_test must hold when the same pipeline is resident and serving.
//
//  - A transient-only fault plan on the daemon's KG endpoint is masked
//    completely: replies stay byte-identical to the fault-free golden.
//  - Permanent faults degrade visibly: every reply carries coverage /
//    values_failed, and the report text says so.
//  - Admission over-capacity sheds with resource_exhausted immediately —
//    a burst against a full daemon never hangs and never queues.
//  - Malformed input (bad JSON, unknown verb, oversized line, non-object)
//    gets a clean error reply and the connection survives.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "kg/serialization.h"
#include "query/sql_parser.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "serve/server.h"
#include "table/csv.h"

namespace mesa {
namespace serve {
namespace {

constexpr char kQuery[] =
    "SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country";

// Transient-only plan: everything the retry layer must mask.
constexpr char kTransientPlan[] =
    "seed=101;timeout=0.15;rate_limit=0.1;unavailable=0.05;truncate=0.05;"
    "latency=1:5";
// Permanent plan: half the KG keys never resolve.
constexpr char kPermanentPlan[] = "seed=7;fail_keys=0.5";

// Covid on disk, written once for the whole binary.
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    // PID-unique paths: parallel ctest runs each test of this binary in
    // its own process, and their fixtures must not race on shared files.
    const std::string tag = std::to_string(::getpid());
    csv_path_ =
        new std::string(testing::TempDir() + "/serve_chaos." + tag + ".csv");
    kg_path_ =
        new std::string(testing::TempDir() + "/serve_chaos." + tag + ".kg");
    ASSERT_TRUE(WriteCsvFile(ds->table, *csv_path_).ok());
    ASSERT_TRUE(WriteKgFile(*ds->kg, *kg_path_).ok());

    // Fault-free golden, serial, exactly the daemon's reply shape.
    auto table = ReadCsvFile(*csv_path_);
    ASSERT_TRUE(table.ok());
    auto kg = ReadKgFile(*kg_path_);
    ASSERT_TRUE(kg.ok());
    Mesa mesa(std::move(*table), &*kg, {"Country", "WHO_Region"},
              MesaOptions{});
    auto query = ParseQuery(kQuery);
    ASSERT_TRUE(query.ok());
    auto report = mesa.Explain(*query);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    golden_report_ = new std::string(FormatReport(*report));
  }

  static void TearDownTestSuite() {
    std::remove(csv_path_->c_str());
    std::remove(kg_path_->c_str());
    delete csv_path_;
    delete kg_path_;
    delete golden_report_;
    csv_path_ = kg_path_ = golden_report_ = nullptr;
  }

  // A warm single-dataset router whose KG endpoint runs `fault_plan`.
  static void BuildRouter(Router* router, const std::string& fault_plan,
                          bool warm = true) {
    Router::DatasetSpec spec;
    spec.name = "covid";
    spec.csv_path = *csv_path_;
    spec.kg_path = *kg_path_;
    spec.extraction_columns = {"Country", "WHO_Region"};
    spec.options.fault_plan = fault_plan;
    ASSERT_TRUE(router->AddDataset(spec).ok());
    if (warm) {
      ASSERT_TRUE(router->WarmStart().ok());
    }
  }

  static std::string* csv_path_;
  static std::string* kg_path_;
  static std::string* golden_report_;
};

std::string* ServeChaosTest::csv_path_ = nullptr;
std::string* ServeChaosTest::kg_path_ = nullptr;
std::string* ServeChaosTest::golden_report_ = nullptr;

TEST_F(ServeChaosTest, TransientFaultsAreMaskedInDaemonReplies) {
  Router router;
  BuildRouter(&router, kTransientPlan);
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok) << reply->error;
  // Byte-identical to the fault-free golden: the outage left no trace.
  EXPECT_EQ(reply->report, *golden_report_);
  EXPECT_EQ(reply->values_failed, 0u);
  EXPECT_DOUBLE_EQ(reply->coverage, 1.0);

  server.Shutdown();
}

TEST_F(ServeChaosTest, PermanentFaultsSurfaceInEveryReply) {
  Router router;
  BuildRouter(&router, kPermanentPlan);
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok) << reply->error;
  // Degraded coverage is visible in the reply fields AND the report text.
  EXPECT_GT(reply->values_failed, 0u);
  EXPECT_LT(reply->coverage, 1.0);
  EXPECT_NE(reply->report.find("failed lookups"), std::string::npos);
  EXPECT_NE(reply->report, *golden_report_);

  server.Shutdown();
}

TEST_F(ServeChaosTest, CoverageFloorTurnsDegradationIntoAnErrorReply) {
  Router router;
  Router::DatasetSpec spec;
  spec.name = "covid";
  spec.csv_path = *csv_path_;
  spec.kg_path = *kg_path_;
  spec.extraction_columns = {"Country", "WHO_Region"};
  spec.options.fault_plan = kPermanentPlan;
  spec.options.extraction.min_coverage = 0.95;
  ASSERT_TRUE(router.AddDataset(spec).ok());
  // Warm start itself must fail: the dataset cannot meet its floor.
  Status warmed = router.WarmStart();
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kUnavailable);

  // A cold daemon serving anyway turns the failure into an error reply,
  // not a crash or a hang.
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->code, "unavailable");
  EXPECT_NE(reply->error.find("coverage"), std::string::npos);

  server.Shutdown();
}

// Admission: with every permit manually held, a burst of explains is shed
// immediately with resource_exhausted — nothing queues, nothing hangs.
TEST_F(ServeChaosTest, OverCapacityExplainsAreShedNeverQueued) {
  RouterOptions options;
  options.max_inflight = 2;
  Router router(options);
  BuildRouter(&router, "");
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  // Hold both permits so every request in the burst is over capacity.
  auto p1 = router.admission().TryAcquire();
  auto p2 = router.admission().TryAcquire();
  ASSERT_TRUE(p1.ok() && p2.ok());

  constexpr int kBurst = 6;
  std::vector<std::thread> burst;
  std::vector<std::string> codes(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    burst.emplace_back([&, i] {
      auto client = Client::Connect(server.port());
      if (!client.ok()) return;
      auto reply = (*client)->Explain("covid", kQuery);
      if (reply.ok()) codes[i] = reply->code;
    });
  }
  // The test's own deadline is the hang detector: joins complete because
  // shedding is non-blocking by construction.
  for (std::thread& t : burst) t.join();
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(codes[i], "resource_exhausted") << "burst request " << i;
  }
  EXPECT_GE(router.admission().shed(), static_cast<size_t>(kBurst));

  // Releasing the permits restores service on the same daemon.
  p1.Release();
  p2.Release();
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_EQ(reply->report, *golden_report_);

  server.Shutdown();
}

// A zero cap pins the shed path deterministically end to end.
TEST_F(ServeChaosTest, ZeroCapDaemonShedsEveryExplainButStillAnswersStatus) {
  RouterOptions options;
  options.max_inflight = 0;
  Router router(options);
  BuildRouter(&router, "");
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->code, "resource_exhausted");
  // Cheap verbs are not subject to explain admission.
  auto status = (*client)->GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->GetBool("ok"));
  EXPECT_GE(status->GetNumber("shed"), 1.0);

  server.Shutdown();
}

// Malformed input: each case gets one clean error reply, and the SAME
// connection keeps working afterwards.
TEST_F(ServeChaosTest, MalformedRequestsGetErrorRepliesAndTheConnectionLives) {
  ServerOptions server_options;
  server_options.max_line_bytes = 4096;  // small cap to exercise oversize.
  Router router;
  BuildRouter(&router, "");
  Server server(&router, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  struct Case {
    const char* label;
    std::string line;
    const char* expect_code;
  };
  const Case cases[] = {
      {"bad json", "{\"verb\":", "invalid_argument"},
      {"not an object", "[1,2,3]", "invalid_argument"},
      {"missing verb", "{}", "invalid_argument"},
      {"unknown verb", "{\"verb\":\"frobnicate\"}", "invalid_argument"},
      {"explain without sql", "{\"verb\":\"explain\",\"dataset\":\"covid\"}",
       "invalid_argument"},
      {"unknown dataset",
       "{\"verb\":\"explain\",\"dataset\":\"nope\",\"sql\":\"SELECT a, "
       "avg(b) FROM t GROUP BY a\"}",
       "not_found"},
      {"oversized line",
       "{\"verb\":\"explain\",\"pad\":\"" + std::string(8192, 'x') + "\"}",
       "invalid_argument"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    auto raw = (*client)->CallRaw(c.line);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    auto reply = JsonValue::Parse(*raw);
    ASSERT_TRUE(reply.ok()) << "reply not JSON: " << *raw;
    EXPECT_FALSE(reply->GetBool("ok"));
    EXPECT_EQ(reply->GetString("code"), c.expect_code);
    EXPECT_FALSE(reply->GetString("trace_id").empty());
    EXPECT_FALSE(reply->GetString("error").empty());
  }

  // After all that abuse, the same connection still serves a real explain.
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_EQ(reply->report, *golden_report_);

  server.Shutdown();
}

// A malformed fault plan fails dataset warm-up loudly, not silently.
TEST_F(ServeChaosTest, MalformedFaultPlanFailsWarmStart) {
  Router router;
  Router::DatasetSpec spec;
  spec.name = "covid";
  spec.csv_path = *csv_path_;
  spec.kg_path = *kg_path_;
  spec.extraction_columns = {"Country", "WHO_Region"};
  spec.options.fault_plan = "seed=7;typo_rate=0.5";
  ASSERT_TRUE(router.AddDataset(spec).ok());
  Status warmed = router.WarmStart();
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace mesa
