// Tests of the src/net/ TCP front door: JSON parse/dump, tenant config and
// quota accounting, wire param mapping, and a live loopback server —
// including the protocol-robustness paths (malformed / truncated /
// oversized request lines, mid-request disconnect, slow-loris partial
// writes) that must fail with a structured error or a session drop without
// leaking reserved admission bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "obs/registry.h"
#include "ooc/ooc_csr.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "net/tenant.h"
#include "net/wire.h"
#include "prof/metrics.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "trace/trace.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::net {
namespace {

using graph::CsrGraph;

std::shared_ptr<const CsrGraph> TestGraph(uint32_t scale = 7) {
  auto coo = graph::GenerateRmat({.scale = scale, .edge_factor = 8.0,
                                  .seed = 42}).value();
  graph::AttachRandomWeights(&coo, 0.1, 1.0, 7);
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.make_undirected = true;
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromCoo(coo, options).value());
}

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"SUBMIT","n":3,"f":1.5,"neg":-2,"flag":true,"nil":null,)"
      R"("arr":[1,"two",false],"nested":{"k":"v"}})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);  // insertion order is preserved
  EXPECT_EQ(parsed->GetString("op", ""), "SUBMIT");
  EXPECT_EQ(parsed->GetNumber("n", 0), 3);
  EXPECT_EQ(parsed->GetNumber("f", 0), 1.5);
  EXPECT_TRUE(parsed->GetBool("flag", false));
  EXPECT_TRUE(parsed->Find("nil")->is_null());
  EXPECT_EQ(parsed->Find("arr")->size(), 3u);
  EXPECT_EQ(parsed->Find("nested")->GetString("k", ""), "v");
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json object = Json::MakeObject();
  object.Set("s", std::string("a\"b\\c\n\t\x01 ω"));
  auto reparsed = Json::Parse(object.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->GetString("s", ""), "a\"b\\c\n\t\x01 ω");
}

TEST(JsonTest, ParseUnicodeEscapes) {
  auto parsed = Json::Parse(R"({"s":"Aé 😀"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s", ""), "Aé \xF0\x9F\x98\x80");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\":}",
      "{\"a\":1} trailing",
      "{\"a\" 1}",
      "[1,]",
      "{\"a\":01}",
      "\"unterminated",
      "{\"a\":\"raw\ncontrol\"}",
      "nul",
      "{\"a\":+1}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << "accepted: " << text;
  }
  // Depth bomb: beyond the nesting cap.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, IntegralNumbersPrintWithoutDecimalPoint) {
  Json object = Json::MakeObject();
  object.Set("i", static_cast<uint64_t>(42));
  object.Set("f", 2.5);
  EXPECT_EQ(object.Dump(), R"({"i":42,"f":2.5})");
}

// --- tenant config + quotas ------------------------------------------------

TEST(TenantTest, ParseByteSizeSuffixes) {
  EXPECT_EQ(ParseByteSize("512").value(), 512u);
  EXPECT_EQ(ParseByteSize("64K").value(), 64u * 1024);
  EXPECT_EQ(ParseByteSize("16M").value(), 16ull << 20);
  EXPECT_EQ(ParseByteSize("2G").value(), 2ull << 30);
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("12Q").ok());
  EXPECT_FALSE(ParseByteSize("-3").ok());
}

TEST(TenantTest, ParseTenantConfigs) {
  auto configs = ParseTenantConfigs(
      "# fleet\n"
      "alpha rate=10 burst=20 concurrent=4 bytes=1G priority=0 weight=2.5\n"
      "\n"
      "beta priority=1 deadline_ms=250\n");
  ASSERT_TRUE(configs.ok()) << configs.status().ToString();
  ASSERT_EQ(configs->size(), 2u);
  EXPECT_EQ((*configs)[0].name, "alpha");
  EXPECT_EQ((*configs)[0].rate_per_sec, 10);
  EXPECT_EQ((*configs)[0].burst, 20);
  EXPECT_EQ((*configs)[0].max_concurrent, 4u);
  EXPECT_EQ((*configs)[0].max_inflight_bytes, 1ull << 30);
  EXPECT_EQ((*configs)[0].weight, 2.5);
  EXPECT_EQ((*configs)[1].priority, 1u);
  EXPECT_EQ((*configs)[1].default_deadline_ms, 250);

  EXPECT_FALSE(ParseTenantConfigs("alpha turbo=9").ok());  // unknown key
  EXPECT_FALSE(ParseTenantConfigs("a rate=1\na rate=2").ok());  // duplicate
  EXPECT_FALSE(ParseTenantConfigs("a rate=fast").ok());
}

TEST(TenantTest, ParseTenantConfigsRejectsWhatACastWouldMangle) {
  // priority and concurrent were strtod output cast straight to uint32_t:
  // undefined for each of these.  A non-finite or non-positive weight, or
  // a negative deadline, would fail every one of the tenant's jobs; a NaN
  // rate or burst switched the token bucket off.
  for (const char* key : {"priority", "concurrent"}) {
    for (const char* value : {"-1", "1e300", "nan", "2.5", "4294967296"}) {
      const std::string line = std::string("a ") + key + "=" + value;
      auto configs = ParseTenantConfigs(line);
      EXPECT_TRUE(configs.status().IsInvalidArgument()) << line;
    }
  }
  for (const char* line : {"a weight=nan", "a weight=0", "a weight=-1",
                           "a weight=inf", "a deadline_ms=-1",
                           "a deadline_ms=nan", "a rate=nan", "a rate=-1",
                           "a rate=1 burst=nan", "a rate=1 burst=inf"}) {
    EXPECT_TRUE(ParseTenantConfigs(line).status().IsInvalidArgument())
        << line;
  }
  auto ok = ParseTenantConfigs("a priority=4294967295 concurrent=0");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)[0].priority, 4294967295u);
}

TEST(TenantTest, TokenBucketRefillsLazily) {
  TenantTable table({{.name = "a", .rate_per_sec = 2.0, .burst = 2.0}});
  QuotaReject reason = QuotaReject::kNone;
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.0).ok());
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.0).ok());
  Status third = table.AdmitAt("a", 0, 0.0, &reason);
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();
  EXPECT_EQ(reason, QuotaReject::kRate);
  // Half a second refills one token at 2/s.
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.5).ok());
  EXPECT_FALSE(table.AdmitAt("a", 0, 0.5).ok());
  // A backwards clock must not mint tokens.
  EXPECT_FALSE(table.AdmitAt("a", 0, 0.1).ok());
  auto usage = table.GetUsage("a");
  EXPECT_EQ(usage.admitted, 3u);
  EXPECT_EQ(usage.rejected_rate, 3u);
}

TEST(TenantTest, ConcurrentAndByteCapsChargeAndRelease) {
  TenantTable table({{.name = "a",
                      .max_concurrent = 2,
                      .max_inflight_bytes = 1000}});
  QuotaReject reason = QuotaReject::kNone;
  EXPECT_TRUE(table.Admit("a", 600).ok());
  EXPECT_TRUE(table.Admit("a", 300, &reason).ok());
  // Third job would be within bytes but over the concurrency cap.
  EXPECT_FALSE(table.Admit("a", 10, &reason).ok());
  EXPECT_EQ(reason, QuotaReject::kConcurrent);
  table.Release("a", 300);
  // Now under the job cap but 600 + 500 busts the byte cap.
  EXPECT_FALSE(table.Admit("a", 500, &reason).ok());
  EXPECT_EQ(reason, QuotaReject::kBytes);
  EXPECT_TRUE(table.Admit("a", 400).ok());
  auto usage = table.GetUsage("a");
  EXPECT_EQ(usage.inflight_jobs, 2u);
  EXPECT_EQ(usage.inflight_bytes, 1000u);
  // Releases pair off; over-release clamps instead of wrapping.
  table.Release("a", 600);
  table.Release("a", 400);
  table.Release("a", 999);
  usage = table.GetUsage("a");
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
}

TEST(TenantTest, UnknownTenantRejected) {
  TenantTable table({{.name = "a"}});
  QuotaReject reason = QuotaReject::kNone;
  Status status = table.Admit("nobody", 0, &reason);
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(reason, QuotaReject::kUnknownTenant);
}

// --- wire ------------------------------------------------------------------

TEST(WireTest, StatusNamesAreSnakeCase) {
  EXPECT_EQ(WireStatusName(StatusCode::kOk), "ok");
  EXPECT_EQ(WireStatusName(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(WireStatusName(StatusCode::kResourceExhausted),
            "resource_exhausted");
}

TEST(WireTest, BuildJobParamsRejectsMalformedNumbers) {
  std::map<std::string, std::string> kv{{"source", "banana"}};
  auto params = serve::Algorithm::kBfs;
  EXPECT_TRUE(BuildJobParams(params, kv, 100).status().IsInvalidArgument());
  kv["source"] = "12";
  EXPECT_TRUE(BuildJobParams(params, kv, 100).ok());
}

TEST(WireTest, CheckedIntegerRejectsWhatACastWouldMangle) {
  const uint64_t u32 = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(CheckedInteger("k", 0, u32).value(), 0u);
  EXPECT_EQ(CheckedInteger("k", 4294967295.0, u32).value(), u32);
  for (double bad : {4294967296.0, 1e300, 2.9, -3.0, -0.5,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(CheckedInteger("k", bad, u32).status().IsInvalidArgument())
        << bad;
  }
  // UINT64_MAX rounds up to 2^64 as a double; 2^64 itself must not pass.
  const uint64_t u64 = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(CheckedInteger("job", 0x1p64, u64).status().IsInvalidArgument());
  EXPECT_EQ(CheckedInteger("job", 0x1p63, u64).value(), uint64_t{1} << 63);
}

TEST(WireTest, BuildJobParamsRejectsOutOfRangeIntegers) {
  // Each of these used to be cast unchecked: 2^32, 1e300 and nan ran BFS
  // from vertex 0, 2.9 from vertex 2, and iters=-3 / 1e12 wrapped to
  // billions of PageRank iterations.
  for (const char* source : {"4294967296", "1e300", "nan", "2.9", "-1"}) {
    EXPECT_TRUE(BuildJobParams(serve::Algorithm::kBfs, {{"source", source}},
                               100)
                    .status()
                    .IsInvalidArgument())
        << source;
  }
  for (const char* iters : {"-3", "1e12", "inf", "0.5"}) {
    EXPECT_TRUE(BuildJobParams(serve::Algorithm::kPageRank,
                               {{"iters", iters}}, 100)
                    .status()
                    .IsInvalidArgument())
        << iters;
  }
  EXPECT_TRUE(BuildJobParams(serve::Algorithm::kKCore, {{"k", "-2"}}, 100)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BuildJobParams(serve::Algorithm::kEsbv, {{"seed", "7.5"}}, 100)
                  .status()
                  .IsInvalidArgument());
  auto iters =
      BuildJobParams(serve::Algorithm::kPageRank, {{"iters", "3"}}, 100);
  ASSERT_TRUE(iters.ok());
  EXPECT_EQ(std::get<core::PageRankOptions>(*iters).max_iterations, 3u);
}

TEST(WireTest, BuildJobSpecMapsEveryJobFileKey) {
  auto g = TestGraph();
  auto spec = BuildJobSpec(
      serve::Algorithm::kBfs,
      {{"source", "3"}, {"arch", "A100"}, {"devices", "2"},
       {"interconnect", "pcie"}, {"tag", "t"}, {"tenant", "gold"},
       {"priority", "1"}, {"weight", "2.5"}, {"deadline_ms", "40"}},
      g);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->graph, g);
  EXPECT_EQ(std::get<core::BfsOptions>(spec->params).source, 3u);
  EXPECT_EQ(spec->arch_preference, "A100");
  EXPECT_EQ(spec->gang_devices, 2u);
  EXPECT_EQ(spec->gang_interconnect.name, "pcie");
  EXPECT_EQ(spec->tag, "t");
  EXPECT_EQ(spec->tenant, "gold");
  EXPECT_EQ(spec->priority, 1u);
  EXPECT_EQ(spec->fair_weight, 2.5);
  EXPECT_EQ(spec->deadline_ms, 40);
  EXPECT_TRUE(serve::ValidateJobSpec(*spec).ok());
}

TEST(WireTest, BuildJobSpecRejectsWhatACastWouldMangle) {
  // serve-batch used to parse these with std::stoll / std::atoi: "abc"
  // threw out of the CLI, 4294967298 truncated to a 2-device gang, and
  // priority -1 became class 4294967295.
  auto g = TestGraph();
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"devices", "abc"},
           {"devices", "4294967298"},
           {"devices", "1.5"},
           {"priority", "-1"},
           {"priority", "nan"},
           {"weight", "heavy"},
           {"deadline_ms", "soon"},
           {"interconnect", "carrier-pigeon"}}) {
    EXPECT_TRUE(BuildJobSpec(serve::Algorithm::kBfs, {{key, value}}, g)
                    .status()
                    .IsInvalidArgument())
        << key << "=" << value;
  }
  // A NaN weight parses, but Submit's validation refuses it: NaN fed into
  // the fair-share virtual time made every comparison false.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"weight", "nan"},
           {"weight", "0"},
           {"weight", "-2"},
           {"deadline_ms", "-1"},
           {"deadline_ms", "nan"}}) {
    auto spec = BuildJobSpec(serve::Algorithm::kBfs, {{key, value}}, g);
    ASSERT_TRUE(spec.ok()) << key << "=" << value;
    EXPECT_TRUE(serve::ValidateJobSpec(*spec).IsInvalidArgument())
        << key << "=" << value;
  }
}

TEST(WireTest, BuildSubmitRequestMapsTheClientJobLine) {
  auto request = BuildSubmitRequest(
      serve::Algorithm::kBfs, {{"source", "3"}, {"graph", "web"},
                               {"arch", "A100"}, {"tag", "t1"},
                               {"deadline_ms", "250"}});
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->GetString("op", ""), "SUBMIT");
  EXPECT_EQ(request->GetString("algo", ""), "bfs");
  EXPECT_EQ(request->GetString("graph", ""), "web");
  EXPECT_EQ(request->GetString("arch", ""), "A100");
  EXPECT_EQ(request->GetString("tag", ""), "t1");
  EXPECT_EQ(request->GetNumber("deadline_ms", 0), 250);
  const Json* params = request->Find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->size(), 1u);
  EXPECT_EQ(params->GetString("source", ""), "3");
}

TEST(WireTest, BuildSubmitRequestRejectsKeysSubmitCannotCarry) {
  // The client used to send these as algorithm params, which the server
  // ignores: `bfs source=0 devices=2` ran on one device over TCP, and
  // `devices=abc` was accepted.
  for (const char* key :
       {"devices", "interconnect", "tenant", "priority", "weight"}) {
    for (const char* value : {"2", "abc"}) {
      auto request = BuildSubmitRequest(serve::Algorithm::kBfs,
                                        {{"source", "0"}, {key, value}});
      ASSERT_FALSE(request.ok()) << key << "=" << value;
      EXPECT_TRUE(request.status().IsInvalidArgument());
      EXPECT_NE(request.status().message().find(key), std::string::npos)
          << request.status().ToString();
    }
  }
}

TEST(WireTest, BuildSubmitRequestChecksTheDeadline) {
  // std::atof sent `deadline_ms=abc` as 0, which means no deadline.
  for (const char* value : {"abc", "5ms", ""}) {
    auto request =
        BuildSubmitRequest(serve::Algorithm::kBfs, {{"deadline_ms", value}});
    ASSERT_FALSE(request.ok()) << value;
    EXPECT_NE(request.status().message().find("deadline_ms"),
              std::string::npos);
  }
}

TEST(WireTest, AppendEdgeUpdatesChecksEveryField) {
  Json updates = Json::MakeArray();
  ASSERT_TRUE(AppendEdgeUpdates("1:2:0.5,3:4", "add", true, &updates).ok());
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates.items()[0].GetString("op", ""), "add");
  EXPECT_EQ(updates.items()[0].GetNumber("u", -1), 1);
  EXPECT_EQ(updates.items()[0].GetNumber("v", -1), 2);
  EXPECT_EQ(updates.items()[0].GetNumber("w", -1), 0.5);
  EXPECT_EQ(updates.items()[1].Find("w"), nullptr);
  // std::atof made `--add=abc:5` the edge (0, 5).
  for (const char* spec : {"abc:5", "1:", ":2", "1", "1:2x", "-1:2", "1.5:2",
                           "1:4294967296", "1:2:heavy"}) {
    Json rejected = Json::MakeArray();
    EXPECT_TRUE(AppendEdgeUpdates(spec, "add", true, &rejected)
                    .IsInvalidArgument())
        << spec;
  }
  Json deletions = Json::MakeArray();
  EXPECT_TRUE(
      AppendEdgeUpdates("1:2:3", "del", false, &deletions).IsInvalidArgument())
      << "deletions take no weight";
}

TEST(WireTest, ParseEndpointRejectsWhatAtoiAccepted) {
  auto endpoint = ParseEndpoint("127.0.0.1:47392");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  EXPECT_EQ(endpoint->first, "127.0.0.1");
  EXPECT_EQ(endpoint->second, 47392);
  // std::atoi connected `127.0.0.1:47392x` to port 47392.
  for (const char* bad : {"127.0.0.1:47392x", "127.0.0.1:", "127.0.0.1",
                          ":80", "host:0", "host:65536", "host:-1",
                          "host:80.5", "host:abc"}) {
    EXPECT_TRUE(ParseEndpoint(bad).status().IsInvalidArgument()) << bad;
  }
}

TEST(WireTest, JobParamsFromJsonAcceptsNumbersStringsBools) {
  auto request = Json::Parse(R"({"source":5,"symmetric":true})").value();
  auto params =
      JobParamsFromJson(serve::Algorithm::kBfs, &request, 100).value();
  EXPECT_EQ(std::get<core::BfsOptions>(params).source, 5u);
  EXPECT_TRUE(std::get<core::BfsOptions>(params).assume_symmetric);

  auto bad = Json::Parse(R"({"source":[1]})").value();
  EXPECT_FALSE(JobParamsFromJson(serve::Algorithm::kBfs, &bad, 100).ok());
}

// --- loopback server -------------------------------------------------------

struct LiveServer {
  std::unique_ptr<serve::Scheduler> scheduler;
  std::unique_ptr<Server> server;
};

LiveServer StartServer(std::shared_ptr<const CsrGraph> g,
                       std::vector<TenantConfig> tenants = {},
                       double floor_ms = 0,
                       size_t max_line_bytes = kDefaultMaxLineBytes) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 64;
  options.device_occupancy_floor_ms = floor_ms;
  LiveServer live;
  live.scheduler = std::move(serve::Scheduler::Create(std::move(options))
                                 .value());
  ServerOptions server_options;
  server_options.tenants = std::move(tenants);
  server_options.max_line_bytes = max_line_bytes;
  Server::GraphMap graphs;
  graphs["default"] = std::move(g);
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), server_options)
          .value());
  return live;
}

TEST(ServerTest, SubmitOverTcpMatchesInProcessFingerprint) {
  auto g = TestGraph();
  auto live = StartServer(g);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  auto hello = client.Hello("anyone").value();
  EXPECT_EQ(hello.GetNumber("proto", 0), kProtocolVersion);

  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3,"symmetric":1},)"
      R"("tag":"t1"})").value();
  auto submitted = client.Call(request).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  EXPECT_EQ(done.GetString("status", ""), "ok");
  EXPECT_EQ(done.GetString("tag", ""), "t1");

  // In-process reference: identical params through core::Run on a fresh
  // device must fingerprint-match the wire result.
  serve::JobSpec spec;
  spec.graph = g;
  spec.params = BuildJobParams(serve::Algorithm::kBfs,
                               {{"source", "3"}, {"symmetric", "1"}},
                               g->num_vertices())
                    .value();
  vgpu::Device device(vgpu::A100Config());
  auto payload =
      core::Run(&device, core::AlgoSpec{serve::Algorithm::kBfs}, *g,
                spec.params)
          .value();
  EXPECT_EQ(done.GetString("fingerprint", ""),
            FingerprintHex(serve::FingerprintPayload(payload)));

  // Delivered-once: a second POLL for the same id is an error.
  Json poll = Json::MakeObject();
  poll.Set("op", "POLL");
  poll.Set("job", submitted.GetNumber("job", 0));
  auto repoll = client.Call(poll).value();
  EXPECT_FALSE(repoll.GetBool("ok", true));
  EXPECT_EQ(repoll.GetString("code", ""), "not_found");
}

// A mixed-tenant workload replayed straight into Scheduler::Submit and
// over loopback TCP with one session per tenant: four tenants in two
// priority classes, one of them ("capped") held to a tight token bucket.
// The front door must keep pace with in-process submission, shed the capped
// tenant's excess without stretching the compliant tenants' queue waits,
// and return results fingerprint-identical to a serial run.
TEST(ServerTest, FrontDoorKeepsPaceAndIsolatesCompliantTenants) {
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  auto g = TestGraph(8);
  const std::vector<TenantConfig> tenants{
      {.name = "gold-a", .priority = 0, .weight = 2.0},
      {.name = "gold-b", .priority = 0, .weight = 1.0},
      {.name = "silver", .priority = 1, .weight = 1.0},
      {.name = "capped", .rate_per_sec = 40.0, .burst = 4.0, .priority = 1,
       .weight = 1.0}};
  constexpr size_t kCapped = 3;

  struct Job {
    size_t tenant = 0;
    serve::Algorithm algo = serve::Algorithm::kBfs;
    std::map<std::string, std::string> kv;
    serve::JobParams params;
    std::string fingerprint;  ///< serial reference
  };
  std::vector<Job> jobs(48);
  vgpu::Device serial(vgpu::A100Config());
  const auto serial_start = Clock::now();
  for (size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    job.tenant = i % tenants.size();
    switch (i % 3) {
      case 0:
        job.kv = {{"source", std::to_string((i * 97) % g->num_vertices())},
                  {"symmetric", "1"}};
        break;
      case 1:
        job.algo = serve::Algorithm::kTriangleCount;
        break;
      default:
        job.algo = serve::Algorithm::kEsbv;
        job.kv = {{"fraction", "0.3"}, {"seed", std::to_string(i)}};
        break;
    }
    job.params = BuildJobParams(job.algo, job.kv, g->num_vertices()).value();
    job.fingerprint = FingerprintHex(serve::FingerprintPayload(
        core::Run(&serial, core::AlgoSpec{job.algo}, *g, job.params)
            .value()));
    serial.ResetCounters();
  }
  // Each job holds its device for at least 4x its mean serial host cost,
  // so the floor, not host simulation, sets the wall time.
  const double floor_ms =
      std::max(4.0, 4.0 * ms_since(serial_start) / jobs.size());
  auto make_scheduler = [&] {
    serve::Scheduler::Options options;
    options.devices.assign(4, {.arch = &vgpu::A100Config(), .options = {}});
    options.queue_capacity = jobs.size();
    options.device_occupancy_floor_ms = floor_ms;
    return serve::Scheduler::Create(std::move(options)).value();
  };

  // In-process baseline: same jobs and tenant QoS fields, no socket.
  double inproc_jobs_per_s = 0;
  {
    auto scheduler = make_scheduler();
    const auto start = Clock::now();
    std::vector<std::future<serve::JobOutcome>> futures;
    for (const Job& job : jobs) {
      const TenantConfig& tenant = tenants[job.tenant];
      serve::JobSpec spec;
      spec.graph = g;
      spec.params = job.params;
      spec.tenant = tenant.name;
      spec.priority = tenant.priority;
      spec.fair_weight = tenant.weight;
      futures.push_back(scheduler->Submit(std::move(spec)).value());
    }
    for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());
    inproc_jobs_per_s = 1e3 * jobs.size() / ms_since(start);
  }

  // Socket replay: one session per tenant on its own thread; each submits
  // all of its jobs, then polls every accepted one to completion.
  struct TenantRun {
    int rejected_quota = 0;
    int not_ok = 0;
    int mismatched = 0;
    std::vector<double> queue_ms;
  };
  struct SocketRun {
    double jobs_per_s = 0;
    std::vector<TenantRun> tenants;
    std::vector<double> CompliantQueueMs() const {
      std::vector<double> all;
      for (size_t t = 0; t < tenants.size(); ++t) {
        if (t == kCapped) continue;
        all.insert(all.end(), tenants[t].queue_ms.begin(),
                   tenants[t].queue_ms.end());
      }
      return all;
    }
  };
  auto run_socket = [&](bool with_capped) {
    auto scheduler = make_scheduler();
    ServerOptions server_options;
    server_options.tenants = tenants;
    Server::GraphMap graphs;
    graphs["default"] = g;
    auto server =
        Server::Start(scheduler.get(), std::move(graphs), server_options)
            .value();
    SocketRun run;
    run.tenants.resize(tenants.size());
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (t == kCapped && !with_capped) continue;
      threads.emplace_back([&, t] {
        TenantRun& mine = run.tenants[t];  // this thread's slot only
        auto client = Client::Connect("127.0.0.1", server->port()).value();
        ASSERT_TRUE(client.Hello(tenants[t].name).ok());
        std::vector<std::pair<uint64_t, const Job*>> accepted;
        for (const Job& job : jobs) {
          if (job.tenant != t) continue;
          Json request = Json::MakeObject();
          request.Set("op", "SUBMIT");
          request.Set("algo", std::string(serve::AlgorithmName(job.algo)));
          Json params = Json::MakeObject();
          for (const auto& [key, value] : job.kv) params.Set(key, value);
          request.Set("params", std::move(params));
          Json response = client.Call(request).value();
          if (!response.GetBool("ok", false)) {
            EXPECT_EQ(response.GetString("code", ""), "resource_exhausted");
            ++mine.rejected_quota;
            continue;
          }
          accepted.emplace_back(
              static_cast<uint64_t>(response.GetNumber("job", 0)), &job);
        }
        for (const auto& [id, job] : accepted) {
          Json done = client.WaitJob(id).value();
          if (done.GetString("status", "") != "ok") {
            ++mine.not_ok;
            continue;
          }
          mine.queue_ms.push_back(done.GetNumber("queue_ms", 0));
          if (done.GetString("fingerprint", "") != job->fingerprint) {
            ++mine.mismatched;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double wall_ms = ms_since(start);
    size_t completed = 0;
    for (const TenantRun& t : run.tenants) completed += t.queue_ms.size();
    run.jobs_per_s = 1e3 * completed / wall_ms;
    server->Shutdown();
    return run;
  };
  const SocketRun solo = run_socket(/*with_capped=*/false);
  const SocketRun full = run_socket(/*with_capped=*/true);

  for (const SocketRun* run : {&solo, &full}) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      EXPECT_EQ(run->tenants[t].mismatched, 0) << tenants[t].name;
      EXPECT_EQ(run->tenants[t].not_ok, 0) << tenants[t].name;
      if (t != kCapped) {
        EXPECT_EQ(run->tenants[t].rejected_quota, 0) << tenants[t].name;
      }
    }
  }
  EXPECT_GE(full.tenants[kCapped].rejected_quota, 1);

  const double pace = full.jobs_per_s / inproc_jobs_per_s;
  const double solo_p99 = prof::Percentile(solo.CompliantQueueMs(), 0.99);
  const double full_p99 = prof::Percentile(full.CompliantQueueMs(), 0.99);
  const double isolation = full_p99 / std::max(solo_p99, 1e-9);
  std::printf("front door: floor %.1f ms, TCP/in-process jobs/s %.3f, "
              "compliant p99 queue wait %.2f / %.2f ms solo = %.3fx\n",
              floor_ms, pace, full_p99, solo_p99, isolation);
  EXPECT_GE(pace, 0.8) << full.jobs_per_s << " vs " << inproc_jobs_per_s;
  EXPECT_LE(isolation, 1.5) << full_p99 << " vs " << solo_p99;
}

TEST(ServerTest, HelloRejectsUnknownTenantAndDropsSession) {
  auto live = StartServer(TestGraph(), {{.name = "alpha"}});
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  EXPECT_TRUE(client.Hello("nobody").status().IsNotFound());
  // The server closes the session after the rejection line.
  auto next = client.ReadLine(2000);
  EXPECT_TRUE(next.status().IsUnavailable()) << next.status().ToString();
}

TEST(ServerTest, SubmitBeforeHelloRejected) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  auto response =
      client.Call(Json::Parse(R"({"op":"SUBMIT","algo":"bfs"})").value())
          .value();
  EXPECT_FALSE(response.GetBool("ok", true));
}

TEST(ServerTest, MalformedLineGetsStructuredErrorSessionSurvives) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.SendLine("{this is not json").ok());
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "invalid_argument");
  // The session is still usable afterwards.
  EXPECT_TRUE(client.Hello("x").ok());
  EXPECT_GE(live.server->Counters().protocol_errors, 1u);
}

TEST(ServerTest, OversizedLineGetsErrorThenDrop) {
  auto live = StartServer(TestGraph(), {}, 0, /*max_line_bytes=*/256);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  std::string big = R"({"op":"HELLO","pad":")" + std::string(1024, 'x') +
                    "\"}";
  ASSERT_TRUE(client.SendLine(big).ok());
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "resource_exhausted");
  EXPECT_TRUE(client.ReadLine(2000).status().IsUnavailable());
  EXPECT_GE(live.server->Counters().lines_oversized, 1u);
}

TEST(ServerTest, OversizedPartialLineWithoutNewlineAlsoDropped) {
  // Slow-loris flavor: an endless request that never sends '\n' must be
  // cut off once it exceeds the line cap, not buffered forever.
  auto live = StartServer(TestGraph(), {}, 0, /*max_line_bytes=*/256);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.SendRaw(std::string(4096, 'y')).ok());  // no newline
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_EQ(error.GetString("code", ""), "resource_exhausted");
  EXPECT_TRUE(client.ReadLine(2000).status().IsUnavailable());
}

TEST(ServerTest, SlowLorisPartialWritesStillParse) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  const std::string request =
      R"({"op":"HELLO","proto":1,"tenant":"drip"})" "\n";
  for (size_t i = 0; i < request.size(); i += 5) {
    ASSERT_TRUE(client.SendRaw(request.substr(i, 5)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto response = Json::Parse(client.ReadLine().value()).value();
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("tenant", ""), "drip");
}

TEST(ServerTest, QuotaRejectionOnTheWireThenReleaseAdmits) {
  auto live = StartServer(TestGraph(), {{.name = "alpha", .max_concurrent = 1}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value();
  auto first = client.Call(request).value();
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  // Job 1 occupies the device for >= 40 ms, so this lands over the cap.
  auto second = client.Call(request).value();
  EXPECT_FALSE(second.GetBool("ok", true));
  EXPECT_EQ(second.GetString("code", ""), "resource_exhausted");
  EXPECT_EQ(second.GetString("reason", ""), "concurrent");
  // Delivering job 1's outcome releases the slot.
  auto done = client.WaitJob(
      static_cast<uint64_t>(first.GetNumber("job", 0))).value();
  EXPECT_EQ(done.GetString("status", ""), "ok");
  auto third = client.Call(request).value();
  EXPECT_TRUE(third.GetBool("ok", false)) << third.Dump();
  EXPECT_EQ(live.server->Counters().submits_rejected_quota, 1u);
}

TEST(ServerTest, MidRequestDisconnectReleasesCharges) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/60);
  {
    auto client = Client::Connect("127.0.0.1", live.server->port()).value();
    ASSERT_TRUE(client.Hello("alpha").ok());
    auto submitted = client.Call(Json::Parse(
        R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
        .value();
    ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    EXPECT_GT(live.server->tenants()->GetUsage("alpha").inflight_bytes, 0u);
    // Half a request, then vanish with the job still in flight.
    ASSERT_TRUE(client.SendRaw(R"({"op":"POLL","jo)").ok());
  }  // ~Client closes the socket
  // The orphan reaper must return the charge once the job resolves.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  TenantTable::Usage usage;
  while (std::chrono::steady_clock::now() < deadline) {
    usage = live.server->tenants()->GetUsage("alpha");
    if (usage.inflight_jobs == 0 && usage.inflight_bytes == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
  EXPECT_GE(live.server->Counters().jobs_orphaned, 1u);
}

TEST(ServerTest, DeadlineShedReportedOnWire) {
  // One worker with a 50 ms occupancy floor: job 2's queue wait exceeds its
  // 1 ms deadline by the time a worker picks it up, so it is shed.
  auto live = StartServer(TestGraph(), {}, /*floor_ms=*/50);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto blocker = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(blocker.GetBool("ok", false)) << blocker.Dump();
  auto doomed = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":1},)"
      R"("deadline_ms":1})").value()).value();
  ASSERT_TRUE(doomed.GetBool("ok", false)) << doomed.Dump();
  auto outcome = client.WaitJob(
      static_cast<uint64_t>(doomed.GetNumber("job", 0))).value();
  EXPECT_EQ(outcome.GetString("status", ""), "deadline_exceeded");
}

TEST(ServerTest, CancelMarksJobAndStatsReports) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"cc"})").value()).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  Json cancel = Json::MakeObject();
  cancel.Set("op", "CANCEL");
  cancel.Set("job", submitted.GetNumber("job", 0));
  auto cancelled = client.Call(cancel).value();
  EXPECT_TRUE(cancelled.GetBool("ok", false)) << cancelled.Dump();
  EXPECT_TRUE(cancelled.GetBool("cancelled", false));

  auto stats = client.Call(Json::Parse(R"({"op":"STATS"})").value()).value();
  EXPECT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  ASSERT_NE(stats.Find("server"), nullptr);
  EXPECT_GE(stats.Find("server")->GetNumber("requests", 0), 3);
  ASSERT_NE(stats.Find("jobs"), nullptr);
}

// Regression: POLL after CANCEL used to race the orphan reaper — the
// response depended on whether the job had already resolved.  It must now be
// a deterministic terminal answer, independent of completion timing.
TEST(ServerTest, PollAfterCancelIsDeterministicTerminal) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"cc"})").value()).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const uint64_t job_id =
      static_cast<uint64_t>(submitted.GetNumber("job", 0));

  Json cancel = Json::MakeObject();
  cancel.Set("op", "CANCEL");
  cancel.Set("job", job_id);
  ASSERT_TRUE(client.Call(cancel).value().GetBool("ok", false));

  // Immediately after CANCEL (the job may still be running): terminal.
  Json poll = Json::MakeObject();
  poll.Set("op", "POLL");
  poll.Set("job", job_id);
  auto response = client.Call(poll).value();
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_TRUE(response.GetBool("done", false))
      << "POLL after CANCEL must be terminal, not reaper-timing dependent";
  EXPECT_TRUE(response.GetBool("cancelled", false));
  EXPECT_EQ(response.GetString("status", ""), "cancelled");

  // Delivered-once semantics hold for the cancelled terminal too.
  auto repoll = client.Call(poll).value();
  EXPECT_FALSE(repoll.GetBool("ok", true));
  EXPECT_EQ(repoll.GetString("code", ""), "not_found");

  // The still-charged future is handed to the orphan reaper, which must
  // release the tenant's admission charge once the job resolves.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  TenantTable::Usage usage;
  while (std::chrono::steady_clock::now() < deadline) {
    usage = live.server->tenants()->GetUsage("alpha");
    if (usage.inflight_jobs == 0 && usage.inflight_bytes == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
}

TEST(ServerTest, OutOfRangeIntegersAreInvalidArgumentSessionSurvives) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  const char* requests[] = {
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":4294967296}})",
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":1e300}})",
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":"nan"}})",
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":2.9}})",
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":-3}})",
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":1e12}})",
      R"({"op":"SUBMIT","algo":"bfs","shard_bytes":-1})",
      R"({"op":"SUBMIT","algo":"bfs","shard_bytes":1.5})",
      R"({"op":"POLL","job":-1})",
      R"({"op":"POLL","job":2.5})",
      R"({"op":"CANCEL","job":1e300})",
      R"({"op":"INSPECT","job":-7})",
      R"({"op":"INSPECT","sched_job_id":0.25})",
  };
  for (const char* text : requests) {
    auto response = client.Call(Json::Parse(text).value()).value();
    EXPECT_FALSE(response.GetBool("ok", true)) << text;
    EXPECT_EQ(response.GetString("code", ""), "invalid_argument")
        << text << " -> " << response.Dump();
  }
  EXPECT_EQ(live.scheduler->Snapshot().jobs_submitted, 0u)
      << "no rejected request may reach the scheduler";
  // The session is still usable: a well-formed job runs to completion.
  auto ok = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3}})").value())
      .value();
  ASSERT_TRUE(ok.GetBool("ok", false)) << ok.Dump();
  auto done =
      client.WaitJob(static_cast<uint64_t>(ok.GetNumber("job", 0))).value();
  EXPECT_EQ(done.GetString("status", ""), "ok") << done.Dump();
}

// --- MUTATE (dynamic graphs) ----------------------------------------------

TEST(ServerTest, MutateThenSubmitSeesFreshGraph) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Baseline result fingerprint on the pristine graph.
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"max_iterations":30}})")
      .value();
  auto first = client.Call(request).value();
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  auto first_done = client.WaitJob(
      static_cast<uint64_t>(first.GetNumber("job", 0))).value();
  ASSERT_EQ(first_done.GetString("status", ""), "ok");
  const std::string before_fp = first_done.GetString("fingerprint", "");

  // Mutate: a batch of inserts, at least one of which must be novel.
  Json updates = Json::MakeArray();
  for (uint32_t v = 60; v < 68; ++v) {
    Json update = Json::MakeObject();
    update.Set("op", "add");
    update.Set("u", 0);
    update.Set("v", static_cast<double>(v));
    updates.PushBack(std::move(update));
  }
  auto mutated = client.Mutate("default", std::move(updates)).value();
  EXPECT_GT(mutated.GetNumber("applied", 0), 0) << mutated.Dump();
  EXPECT_GT(mutated.GetNumber("version", 0), 0);
  EXPECT_NE(mutated.GetString("fingerprint", ""), "");
  EXPECT_GE(live.server->Counters().mutations_applied, 1u);

  // A submit after the mutation must run on the new version.
  auto second = client.Call(request).value();
  ASSERT_TRUE(second.GetBool("ok", false)) << second.Dump();
  auto second_done = client.WaitJob(
      static_cast<uint64_t>(second.GetNumber("job", 0))).value();
  ASSERT_EQ(second_done.GetString("status", ""), "ok");
  EXPECT_NE(second_done.GetString("fingerprint", ""), before_fp)
      << "the job ran on the stale pre-mutation snapshot";
}

TEST(ServerTest, MutateErrorsAreStructured) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Unknown graph name.
  Json updates = Json::MakeArray();
  Json add = Json::MakeObject();
  add.Set("op", "add");
  add.Set("u", 0);
  add.Set("v", 1);
  updates.PushBack(std::move(add));
  auto unknown = client.Mutate("nope", std::move(updates));
  EXPECT_FALSE(unknown.ok());

  // Out-of-range vertex id: structured error, session survives.
  Json request = Json::MakeObject();
  request.Set("op", "MUTATE");
  request.Set("graph", "default");
  Json bad_updates = Json::MakeArray();
  Json bad = Json::MakeObject();
  bad.Set("op", "add");
  bad.Set("u", 0);
  bad.Set("v", static_cast<double>(1u << 30));
  bad_updates.PushBack(std::move(bad));
  request.Set("updates", std::move(bad_updates));
  auto response = client.Call(request).value();
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code", ""), "out_of_range");
  EXPECT_TRUE(client.Call(Json::Parse(R"({"op":"STATS"})").value())
                  .value()
                  .GetBool("ok", false))
      << "the session must survive a rejected mutation";
}

TEST(ServerTest, MutateRejectsOutOfRangeIdsBeforeApplyingAny) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto before = client.Mutate("default", Json::MakeArray()).value();
  // u=2^32 used to wrap to vertex 0 and silently mutate edge (0, v); the
  // valid update ahead of it in the batch must not be applied either.
  for (const char* bad : {R"({"u":4294967296,"v":5})", R"({"u":1,"v":-1})",
                          R"({"u":1.5,"v":5})", R"({"u":1,"v":1e300})"}) {
    Json updates = Json::MakeArray();
    updates.PushBack(Json::Parse(R"({"op":"add","u":1,"v":61})").value());
    updates.PushBack(Json::Parse(bad).value());
    Json request = Json::MakeObject();
    request.Set("op", "MUTATE");
    request.Set("updates", std::move(updates));
    auto response = client.Call(request).value();
    EXPECT_FALSE(response.GetBool("ok", true)) << bad;
    EXPECT_EQ(response.GetString("code", ""), "invalid_argument")
        << bad << " -> " << response.Dump();
  }
  auto after = client.Mutate("default", Json::MakeArray()).value();
  EXPECT_EQ(after.GetNumber("version", -1), before.GetNumber("version", -2));
  EXPECT_EQ(after.GetNumber("num_edges", -1),
            before.GetNumber("num_edges", -2));
  EXPECT_EQ(live.server->Counters().mutations_applied, 0u);
}

TEST(ServerTest, MutateCompactFoldsTheDelta) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  Json updates = Json::MakeArray();
  Json add = Json::MakeObject();
  add.Set("op", "add");
  add.Set("u", 1);
  add.Set("v", 1);  // self loop: legal under the shared policy
  updates.PushBack(std::move(add));
  auto response =
      client.Mutate("default", std::move(updates), /*compact=*/true).value();
  EXPECT_TRUE(response.GetBool("compacted", false)) << response.Dump();
  EXPECT_EQ(response.GetNumber("applied", -1), 1);
}

// --- out-of-core + incremental on the wire ---------------------------------

TEST(ServerTest, OocSubmitStreamsOnWireAndMatchesInMemory) {
  auto g = TestGraph();
  // Budget the single device below the whole-graph PageRank working set but
  // above the streamed one (memory_scale *divides* the arch capacity).
  serve::JobSpec probe;
  probe.graph = g;
  core::PageRankOptions pr;
  pr.max_iterations = 12;
  probe.params = pr;
  const uint64_t full = serve::EstimateJobDeviceBytes(probe);
  const uint64_t streamed =
      ooc::EstimateStreamedBytes(probe.params, g->num_vertices(), 4096)
          .value();
  const uint64_t budget =
      std::max<uint64_t>(full * 3 / 5, streamed + streamed / 4);

  serve::Scheduler::Options options;
  serve::Scheduler::DeviceSlot slot;
  slot.arch = &vgpu::A100Config();
  slot.options.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      static_cast<double>(budget);
  options.devices = {slot};
  options.queue_capacity = 64;
  LiveServer live;
  live.scheduler =
      std::move(serve::Scheduler::Create(std::move(options)).value());
  Server::GraphMap graphs;
  graphs["default"] = g;
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), {}).value());

  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Without the opt-in, the over-budget job is a hard admission reject.
  auto plain = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":12}})")
      .value()).value();
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  auto plain_done = client.WaitJob(
      static_cast<uint64_t>(plain.GetNumber("job", 0))).value();
  EXPECT_EQ(plain_done.GetString("status", ""), "resource_exhausted")
      << plain_done.Dump();

  // With "ooc": the same ask lands in the streamed tier and reports it.
  auto ooc = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":12},)"
      R"("ooc":true,"shard_bytes":4096})").value()).value();
  ASSERT_TRUE(ooc.GetBool("ok", false)) << ooc.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(ooc.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_TRUE(done.GetBool("streamed", false)) << done.Dump();
  EXPECT_GE(done.GetNumber("ooc_shards", 0), 2) << done.Dump();
  EXPECT_GT(done.GetNumber("ooc_staged_bytes", 0), 0) << done.Dump();

  // Byte-identical to the in-memory path on a full-size device.
  vgpu::Device roomy(vgpu::A100Config());
  auto payload = core::Run(&roomy, core::AlgoSpec{serve::Algorithm::kPageRank},
                           *probe.graph, probe.params)
                     .value();
  EXPECT_EQ(done.GetString("fingerprint", ""),
            FingerprintHex(serve::FingerprintPayload(payload)));
}

TEST(ServerTest, IncrementalSubmitReportsPathOnWire) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  const std::string ask =
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3},)"
      R"("incremental":true})";

  // Cold ask: no previous result of this algorithm exists yet, so a full
  // run happens and the response says why the warm start didn't.
  auto cold = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(cold.GetBool("ok", false)) << cold.Dump();
  auto cold_done = client.WaitJob(
      static_cast<uint64_t>(cold.GetNumber("job", 0))).value();
  ASSERT_EQ(cold_done.GetString("status", ""), "ok") << cold_done.Dump();
  EXPECT_FALSE(cold_done.GetBool("incremental", true)) << cold_done.Dump();
  EXPECT_EQ(cold_done.GetString("fallback_reason", ""),
            "no previous result to warm-start from");
  EXPECT_EQ(cold_done.GetNumber("version", -1), 0) << cold_done.Dump();

  // Mutate: a small batch of inserts, well under the incremental
  // threshold; the cold run above seeded the previous-result store.
  Json updates = Json::MakeArray();
  for (uint32_t v = 60; v < 68; ++v) {
    Json update = Json::MakeObject();
    update.Set("op", "add");
    update.Set("u", 0);
    update.Set("v", static_cast<double>(v));
    updates.PushBack(std::move(update));
  }
  auto mutated = client.Mutate("default", std::move(updates)).value();
  ASSERT_GT(mutated.GetNumber("applied", 0), 0) << mutated.Dump();
  const double version = mutated.GetNumber("version", 0);

  // Warm ask: the delta path actually runs and the version advances.
  auto warm = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(warm.GetBool("ok", false)) << warm.Dump();
  auto warm_done = client.WaitJob(
      static_cast<uint64_t>(warm.GetNumber("job", 0))).value();
  ASSERT_EQ(warm_done.GetString("status", ""), "ok") << warm_done.Dump();
  EXPECT_TRUE(warm_done.GetBool("incremental", false)) << warm_done.Dump();
  EXPECT_EQ(warm_done.GetString("fallback_reason", ""), "");
  EXPECT_EQ(warm_done.GetNumber("version", -1), version)
      << warm_done.Dump();

  // A deletion makes the next warm ask fall back — visibly.
  Json removal = Json::MakeArray();
  Json remove = Json::MakeObject();
  remove.Set("op", "remove");
  remove.Set("u", 0);
  remove.Set("v", 60);
  removal.PushBack(std::move(remove));
  ASSERT_GT(client.Mutate("default", std::move(removal))
                .value()
                .GetNumber("applied", 0),
            0);
  auto fell = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(fell.GetBool("ok", false)) << fell.Dump();
  auto fell_done = client.WaitJob(
      static_cast<uint64_t>(fell.GetNumber("job", 0))).value();
  ASSERT_EQ(fell_done.GetString("status", ""), "ok") << fell_done.Dump();
  EXPECT_FALSE(fell_done.GetBool("incremental", true)) << fell_done.Dump();
  EXPECT_NE(fell_done.GetString("fallback_reason", "").find("deletion"),
            std::string::npos)
      << fell_done.Dump();
}

TEST(ServerTest, IncrementalOnStaticGraphIsFailedPrecondition) {
  // A base with duplicate adjacency fails delta normal-form validation and
  // stays static: SUBMIT works, incremental asks are a structured error.
  graph::CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 1);
  coo.AddEdge(1, 2);
  auto g = std::make_shared<const CsrGraph>(CsrGraph::FromCoo(coo).value());
  auto live = StartServer(g);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  auto refused = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0},)"
      R"("incremental":true})").value()).value();
  EXPECT_FALSE(refused.GetBool("ok", true)) << refused.Dump();
  EXPECT_EQ(refused.GetString("code", ""), "failed_precondition")
      << refused.Dump();

  // The session and plain submits on the same graph keep working.
  auto plain = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  EXPECT_EQ(client.WaitJob(static_cast<uint64_t>(
                               plain.GetNumber("job", 0)))
                .value()
                .GetString("status", ""),
            "ok");
}

TEST(ServerTest, SequenceNumbersEchoInOrder) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  // Pipeline three STATS with seq tags; responses must come back in order.
  for (int seq = 10; seq < 13; ++seq) {
    Json request = Json::MakeObject();
    request.Set("op", "STATS");
    request.Set("seq", seq);
    ASSERT_TRUE(client.SendLine(request.Dump()).ok());
  }
  for (int seq = 10; seq < 13; ++seq) {
    auto response = Json::Parse(client.ReadLine().value()).value();
    EXPECT_EQ(response.GetNumber("seq", -1), seq);
  }
}

// --- trace identity + INSPECT (§2.14) --------------------------------------

std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// Golden key sets: the exact wire surface, in insertion order.  A key
// appearing, vanishing, or moving is a protocol change and must be a
// conscious one (update this test *and* DESIGN.md §2.10/§2.14).
TEST(ServerTest, GoldenSubmitPollAndStatsKeySets) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // The client is the outermost layer here, so it mints the trace id; the
  // server must adopt it verbatim rather than minting its own.
  const std::string trace_hex = trace::TraceIdHex(trace::MintTraceId());
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3},"tag":"t"})")
      .value();
  request.Set("trace_id", trace_hex);
  auto submitted = client.Call(request).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  // Every response gains a trailing "op" echo from the dispatcher.
  EXPECT_EQ(Keys(submitted),
            (std::vector<std::string>{"ok", "job", "trace_id",
                                      "estimated_bytes", "tag", "op"}));
  EXPECT_EQ(submitted.GetString("trace_id", ""), trace_hex);

  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_EQ(Keys(done),
            (std::vector<std::string>{
                "ok", "done", "status", "tag", "device", "queue_ms",
                "exec_ms", "trace_id", "sched_job_id", "algo", "modeled_ms",
                "transfer_ms", "cache_hit", "fingerprint", "profile",
                "job", "op"}));
  EXPECT_EQ(done.GetString("trace_id", ""), trace_hex)
      << "the propagated id must survive SUBMIT -> scheduler -> POLL";
  const Json* profile = done.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(Keys(*profile),
            (std::vector<std::string>{
                "num_kernels", "total_ms", "total_cycles",
                "warp_inst_issued", "branches", "divergent_branches",
                "dram_bytes", "divergent_branch_ratio", "gld_efficiency",
                "gst_efficiency", "l1_hit_rate", "l2_hit_rate",
                "achieved_occupancy", "exposed_latency_cycles",
                "top_kernels"}));
  EXPECT_GT(profile->GetNumber("num_kernels", 0), 0);
  ASSERT_NE(profile->Find("top_kernels"), nullptr);
  ASSERT_GT(profile->Find("top_kernels")->size(), 0u);
  EXPECT_EQ(Keys(profile->Find("top_kernels")->items()[0]),
            (std::vector<std::string>{"kernel", "launches", "cycles",
                                      "time_ms"}));

  auto stats = client.Call(Json::Parse(R"({"op":"STATS"})").value()).value();
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  EXPECT_EQ(Keys(stats),
            (std::vector<std::string>{"ok", "jobs", "server", "tenants",
                                      "op"}));
  EXPECT_EQ(Keys(*stats.Find("jobs")),
            (std::vector<std::string>{
                "submitted", "completed", "failed", "rejected_admission",
                "rejected_backpressure", "shed_deadline", "queued",
                "running", "jobs_per_sec"}));
  EXPECT_EQ(Keys(*stats.Find("server")),
            (std::vector<std::string>{
                "sessions_open", "sessions_opened", "requests",
                "protocol_errors", "submits_accepted",
                "submits_rejected_quota", "mutations_applied"}));
}

/// Sum over every series of a counter or gauge family in `registry`.
double ScrapeSum(const obs::Registry& registry, const std::string& name) {
  double total = 0;
  for (const auto& family : registry.Scrape()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) total += series.value;
  }
  return total;
}

// STATS and the Prometheus scrape read the same registry series, so after
// a loopback run with quota rejections, sheds, protocol errors and a
// mutation every "jobs" and "server" number must equal its scrape sum.
TEST(ServerTest, StatsMatchesScrapeAfterLoopbackRun) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_concurrent = 1},
                           {.name = "beta"}},
                          /*floor_ms=*/20);
  auto alpha = Client::Connect("127.0.0.1", live.server->port()).value();
  auto beta = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(alpha.Hello("alpha").ok());
  ASSERT_TRUE(beta.Hello("beta").ok());
  auto bfs = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value();
  auto first = alpha.Call(bfs).value();
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  EXPECT_FALSE(alpha.Call(bfs).value().GetBool("ok", true))
      << "alpha's second concurrent job is over quota";
  auto shed = beta.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":1},)"
      R"("deadline_ms":1})").value()).value();
  ASSERT_TRUE(shed.GetBool("ok", false)) << shed.Dump();
  ASSERT_TRUE(beta.SendLine("{not json").ok());
  ASSERT_TRUE(beta.ReadLine().ok());
  Json updates = Json::MakeArray();
  updates.PushBack(Json::Parse(R"({"op":"add","u":2,"v":70})").value());
  ASSERT_TRUE(beta.Mutate("default", std::move(updates)).ok());
  ASSERT_TRUE(
      alpha.WaitJob(static_cast<uint64_t>(first.GetNumber("job", 0))).ok());
  auto shed_done =
      beta.WaitJob(static_cast<uint64_t>(shed.GetNumber("job", 0))).value();
  EXPECT_EQ(shed_done.GetString("status", ""), "deadline_exceeded");

  auto stats = alpha.Call(Json::Parse(R"({"op":"STATS"})").value()).value();
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  const obs::Registry& registry = live.scheduler->metrics_registry();
  const Json& jobs = *stats.Find("jobs");
  EXPECT_EQ(jobs.GetNumber("submitted", -1), 2);
  EXPECT_EQ(jobs.GetNumber("shed_deadline", -1), 1);
  for (const auto& [key, family] :
       std::vector<std::pair<std::string, std::string>>{
           {"submitted", "adgraph_jobs_submitted_total"},
           {"completed", "adgraph_jobs_completed_total"},
           {"failed", "adgraph_jobs_failed_total"},
           {"rejected_admission", "adgraph_jobs_rejected_admission_total"},
           {"rejected_backpressure",
            "adgraph_jobs_rejected_backpressure_total"},
           {"shed_deadline", "adgraph_jobs_shed_deadline_total"}}) {
    EXPECT_EQ(jobs.GetNumber(key, -1), ScrapeSum(registry, family)) << key;
  }
  const Json& server = *stats.Find("server");
  EXPECT_EQ(server.GetNumber("submits_rejected_quota", -1), 1);
  EXPECT_EQ(server.GetNumber("protocol_errors", -1), 1);
  EXPECT_EQ(server.GetNumber("mutations_applied", -1), 1);
  for (const auto& [key, family] :
       std::vector<std::pair<std::string, std::string>>{
           {"sessions_open", "adgraph_net_live_sessions"},
           {"sessions_opened", "adgraph_net_sessions_opened_total"},
           {"requests", "adgraph_net_requests_total"},
           {"protocol_errors", "adgraph_net_protocol_errors_total"},
           {"submits_accepted", "adgraph_net_submits_accepted_total"},
           {"submits_rejected_quota",
            "adgraph_net_submits_rejected_quota_total"},
           {"mutations_applied", "adgraph_net_mutations_applied_total"}}) {
    EXPECT_EQ(server.GetNumber(key, -1), ScrapeSum(registry, family)) << key;
  }
}

// Regression: the wire job id used to be minted *after* Scheduler::Submit,
// so the id a client polled could never be matched to the spans already
// emitted for the job.  Both ids now ride the outcome, and INSPECT by the
// wire id must land on the record carrying the scheduler's id.
TEST(ServerTest, WireAndSchedulerJobIdsCorrelate) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const uint64_t wire_id =
      static_cast<uint64_t>(submitted.GetNumber("job", 0));
  const std::string trace_hex = submitted.GetString("trace_id", "");
  ASSERT_NE(trace_hex, "");

  auto done = client.WaitJob(wire_id).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_EQ(done.GetNumber("job", 0), static_cast<double>(wire_id));
  const uint64_t sched_id =
      static_cast<uint64_t>(done.GetNumber("sched_job_id", 0));
  EXPECT_NE(sched_id, 0u);

  auto inspected = client.Inspect(wire_id).value();
  const Json* record = inspected.Find("record");
  ASSERT_NE(record, nullptr) << inspected.Dump();
  EXPECT_EQ(record->GetNumber("job", 0), static_cast<double>(wire_id));
  EXPECT_EQ(record->GetNumber("sched_job_id", 0),
            static_cast<double>(sched_id));
  EXPECT_EQ(record->GetString("trace_id", ""), trace_hex);
}

TEST(ServerTest, InspectReturnsSpanTreeProfileAndList) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":8}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  const std::string trace_hex = done.GetString("trace_id", "");

  // By trace id (INSPECT needs no HELLO, but an existing session is fine):
  // the full tree — the wire-layer admit span at the head, the engine's
  // algo span, kernel spans — every one stamped with the job's identity.
  auto inspected = client.Inspect(0, trace_hex).value();
  const Json* record = inspected.Find("record");
  ASSERT_NE(record, nullptr) << inspected.Dump();
  EXPECT_EQ(record->GetString("status", ""), "ok");
  ASSERT_NE(record->Find("profile"), nullptr);
  EXPECT_GT(record->Find("profile")->GetNumber("num_kernels", 0), 0);
  const Json* spans = record->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_GT(spans->size(), 0u);
  bool saw_admit = false, saw_algo = false, saw_kernel = false;
  for (const Json& span : spans->items()) {
    const std::string name = span.GetString("name", "");
    saw_admit |= name == "admit";
    saw_algo |= name.rfind("algo:", 0) == 0;
    saw_kernel |= span.GetString("cat", "") == "kernel";
    const Json* args = span.Find("args");
    ASSERT_NE(args, nullptr) << name;
    EXPECT_EQ(args->GetString("trace_id", ""), trace_hex) << name;
  }
  EXPECT_TRUE(saw_admit) << "the wire layer heads the span tree";
  EXPECT_TRUE(saw_algo);
  EXPECT_TRUE(saw_kernel);

  // The no-selector list form carries summaries without span trees.
  auto listed = client.Inspect().value();
  const Json* records = listed.Find("records");
  ASSERT_NE(records, nullptr) << listed.Dump();
  ASSERT_GT(records->size(), 0u);
  bool found = false;
  for (const Json& entry : records->items()) {
    found |= entry.GetString("trace_id", "") == trace_hex;
    EXPECT_EQ(entry.Find("spans"), nullptr) << "list form omits span trees";
  }
  EXPECT_TRUE(found);

  // Unknown ids and malformed hex are structured errors, session survives.
  EXPECT_TRUE(client.Inspect(999999).status().IsNotFound());
  Json bad = Json::MakeObject();
  bad.Set("op", "INSPECT");
  bad.Set("trace_id", "not-hex!");
  auto error = client.Call(bad).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "invalid_argument");
  EXPECT_TRUE(client.Call(Json::Parse(R"({"op":"STATS"})").value())
                  .value()
                  .GetBool("ok", false));
}

TEST(ServerTest, InspectWithoutFlightRecorderIsUnavailable) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.flight_recorder.enabled = false;
  LiveServer live;
  live.scheduler =
      std::move(serve::Scheduler::Create(std::move(options)).value());
  Server::GraphMap graphs;
  graphs["default"] = TestGraph();
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), {}).value());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  // Like STATS, INSPECT needs no HELLO handshake.
  Json request = Json::MakeObject();
  request.Set("op", "INSPECT");
  auto response = client.Call(request).value();
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code", ""), "unavailable");
}

TEST(ServerTest, ShutdownWithLiveSessionsReleasesEverything) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  live.server->Shutdown();
  auto usage = live.server->tenants()->GetUsage("alpha");
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
  live.scheduler->Drain();
}

}  // namespace
}  // namespace adgraph::net
