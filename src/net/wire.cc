#include "net/wire.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "core/subgraph.h"
#include "vgpu/interconnect.h"

namespace adgraph::net {
namespace {

constexpr uint64_t kMaxVertex = std::numeric_limits<graph::vid_t>::max();
constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

}  // namespace

Result<double> ParseNumericValue(const std::string& key,
                                 const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    return Status::InvalidArgument("param '" + key + "' wants a number, got '" +
                                   value + "'");
  }
  return v;
}

Result<uint64_t> CheckedInteger(std::string_view key, double value,
                                uint64_t max) {
  // 0x1p64 is the first double past every uint64_t; a `max` of
  // UINT64_MAX rounds up to it, so the explicit bound keeps the cast
  // below defined.
  if (!(value >= 0) || value >= 0x1p64 ||
      value > static_cast<double>(max) || value != std::floor(value)) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", value);
    return Status::InvalidArgument("'" + std::string(key) +
                                   "' wants an integer in [0, " +
                                   std::to_string(max) + "], got " + shown);
  }
  return static_cast<uint64_t>(value);
}

std::string_view WireStatusName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kOutOfMemory: return "out_of_memory";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kUnimplemented: return "unimplemented";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kDeadlock: return "deadlock";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kCancelled: return "cancelled";
  }
  return "internal";
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

Result<serve::JobParams> BuildJobParams(
    serve::Algorithm algo, const std::map<std::string, std::string>& kv,
    graph::vid_t num_vertices) {
  auto get_number = [&](const char* key, double dflt) -> Result<double> {
    auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    return ParseNumericValue(key, it->second);
  };
  auto get_integer = [&](const char* key, uint64_t dflt,
                         uint64_t max) -> Result<uint64_t> {
    auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    ADGRAPH_ASSIGN_OR_RETURN(double value, ParseNumericValue(key, it->second));
    return CheckedInteger(key, value, max);
  };
  switch (algo) {
    case serve::Algorithm::kBfs: {
      core::BfsOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t source,
                               get_integer("source", 0, kMaxVertex));
      ADGRAPH_ASSIGN_OR_RETURN(double symmetric, get_number("symmetric", 0));
      o.source = static_cast<graph::vid_t>(source);
      o.assume_symmetric = symmetric != 0;
      return serve::JobParams(o);
    }
    case serve::Algorithm::kSssp: {
      core::SsspOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t source,
                               get_integer("source", 0, kMaxVertex));
      o.source = static_cast<graph::vid_t>(source);
      return serve::JobParams(o);
    }
    case serve::Algorithm::kPageRank: {
      core::PageRankOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(
          uint64_t iters, get_integer("iters", o.max_iterations, kMaxU32));
      o.max_iterations = static_cast<uint32_t>(iters);
      return serve::JobParams(o);
    }
    case serve::Algorithm::kTriangleCount: {
      core::TcOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(double orient, get_number("orient", 1));
      o.orient = orient != 0;
      return serve::JobParams(o);
    }
    case serve::Algorithm::kConnectedComponents:
      return serve::JobParams(core::CcOptions{});
    case serve::Algorithm::kKCore: {
      core::KCoreOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t k, get_integer("k", 3, kMaxU32));
      o.k = static_cast<uint32_t>(k);
      return serve::JobParams(o);
    }
    case serve::Algorithm::kJaccard:
      return serve::JobParams(core::JaccardOptions{});
    case serve::Algorithm::kWidestPath: {
      core::WidestPathOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t source,
                               get_integer("source", 0, kMaxVertex));
      o.source = static_cast<graph::vid_t>(source);
      return serve::JobParams(o);
    }
    case serve::Algorithm::kColoring:
      return serve::JobParams(core::ColoringOptions{});
    case serve::Algorithm::kEsbv: {
      core::EsbvOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(double fraction, get_number("fraction", 0.5));
      ADGRAPH_ASSIGN_OR_RETURN(
          uint64_t seed,
          get_integer("seed", 7, std::numeric_limits<uint64_t>::max()));
      o.vertices = core::SelectPseudoCluster(num_vertices, fraction, seed);
      return serve::JobParams(o);
    }
    case serve::Algorithm::kBetweenness: {
      core::BcOptions o;
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t source,
                               get_integer("source", 0, kMaxVertex));
      o.source = static_cast<graph::vid_t>(source);
      return serve::JobParams(o);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<serve::JobSpec> BuildJobSpec(
    serve::Algorithm algo, const std::map<std::string, std::string>& kv,
    std::shared_ptr<const graph::CsrGraph> graph) {
  serve::JobSpec spec;
  ADGRAPH_ASSIGN_OR_RETURN(spec.params,
                           BuildJobParams(algo, kv, graph->num_vertices()));
  spec.graph = std::move(graph);
  for (const auto& [key, value] : kv) {
    if (key == "arch") {
      spec.arch_preference = value;
    } else if (key == "tag") {
      spec.tag = value;
    } else if (key == "tenant") {
      spec.tenant = value;
    } else if (key == "interconnect") {
      auto preset = vgpu::InterconnectPresetByName(value);
      if (!preset.ok()) {
        return Status::InvalidArgument(preset.status().message());
      }
      spec.gang_interconnect = *preset;
    } else if (key == "devices" || key == "priority") {
      ADGRAPH_ASSIGN_OR_RETURN(double number, ParseNumericValue(key, value));
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t checked,
                               CheckedInteger(key, number, kMaxU32));
      (key == "devices" ? spec.gang_devices : spec.priority) =
          static_cast<uint32_t>(checked);
    } else if (key == "weight") {
      ADGRAPH_ASSIGN_OR_RETURN(spec.fair_weight, ParseNumericValue(key, value));
    } else if (key == "deadline_ms") {
      ADGRAPH_ASSIGN_OR_RETURN(spec.deadline_ms, ParseNumericValue(key, value));
    }
  }
  return spec;
}

Result<Json> BuildSubmitRequest(
    serve::Algorithm algo, const std::map<std::string, std::string>& kv) {
  Json request = Json::MakeObject();
  request.Set("op", "SUBMIT");
  request.Set("algo", std::string(serve::AlgorithmName(algo)));
  Json params = Json::MakeObject();
  for (const auto& [key, value] : kv) {
    if (key == "devices" || key == "interconnect" || key == "tenant" ||
        key == "priority" || key == "weight") {
      return Status::InvalidArgument(
          "'" + key + "' has no SUBMIT field: gangs do not run over the "
          "wire, and HELLO's tenant contract sets tenant, priority, weight");
    }
    if (key == "graph" || key == "arch" || key == "tag") {
      request.Set(key, value);
    } else if (key == "deadline_ms") {
      ADGRAPH_ASSIGN_OR_RETURN(double deadline, ParseNumericValue(key, value));
      request.Set(key, deadline);
    } else {
      params.Set(key, value);
    }
  }
  if (params.size() > 0) request.Set("params", std::move(params));
  return request;
}

Status AppendEdgeUpdates(const std::string& specs, const std::string& op,
                         bool allow_weight, Json* updates) {
  std::istringstream list(specs);
  std::string spec;
  while (std::getline(list, spec, ',')) {
    std::istringstream fields(spec);
    std::string u, v, w;
    std::getline(fields, u, ':');
    std::getline(fields, v, ':');
    std::getline(fields, w, ':');
    if (!w.empty() && !allow_weight) {
      return Status::InvalidArgument("edge spec '" + spec + "': " + op +
                                     " takes no weight");
    }
    Json update = Json::MakeObject();
    update.Set("op", op);
    for (const auto& [key, text] : {std::pair{"u", u}, std::pair{"v", v}}) {
      ADGRAPH_ASSIGN_OR_RETURN(double number, ParseNumericValue(key, text));
      ADGRAPH_ASSIGN_OR_RETURN(uint64_t id,
                               CheckedInteger(key, number, kMaxVertex));
      update.Set(key, static_cast<double>(id));
    }
    if (!w.empty()) {
      ADGRAPH_ASSIGN_OR_RETURN(double weight, ParseNumericValue("w", w));
      update.Set("w", weight);
    }
    updates->PushBack(std::move(update));
  }
  return Status::OK();
}

Result<std::pair<std::string, uint16_t>> ParseEndpoint(
    const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("endpoint wants HOST:PORT, got '" +
                                   endpoint + "'");
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      double number, ParseNumericValue("port", endpoint.substr(colon + 1)));
  ADGRAPH_ASSIGN_OR_RETURN(uint64_t port,
                           CheckedInteger("port", number, 65535));
  if (port == 0) return Status::InvalidArgument("'port' must be >= 1");
  return std::make_pair(endpoint.substr(0, colon),
                        static_cast<uint16_t>(port));
}

Result<serve::JobParams> JobParamsFromJson(serve::Algorithm algo,
                                           const Json* params,
                                           graph::vid_t num_vertices) {
  std::map<std::string, std::string> kv;
  if (params != nullptr && !params->is_null()) {
    if (!params->is_object()) {
      return Status::InvalidArgument("'params' must be a JSON object");
    }
    for (const auto& [key, value] : params->members()) {
      if (value.is_number()) {
        // Json(value).Dump() prints integral doubles without a decimal
        // point, which is what the numeric param parser wants.
        kv[key] = value.Dump();
      } else if (value.is_string()) {
        kv[key] = value.AsString();
      } else if (value.is_bool()) {
        kv[key] = std::string(value.AsBool() ? "1" : "0");
      } else {
        return Status::InvalidArgument("param '" + key +
                                       "' must be a number, string or bool");
      }
    }
  }
  return BuildJobParams(algo, kv, num_vertices);
}

Json OutcomeToJson(const serve::JobOutcome& outcome) {
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("done", true);
  response.Set("status", std::string(WireStatusName(outcome.status.code())));
  if (!outcome.status.ok()) {
    response.Set("error", outcome.status.message());
  }
  if (!outcome.tag.empty()) response.Set("tag", outcome.tag);
  response.Set("device", outcome.device_name);
  response.Set("queue_ms", outcome.queue_wall_ms);
  response.Set("exec_ms", outcome.exec_wall_ms);
  // Trace identity (DESIGN.md §2.14): the propagated end-to-end id plus
  // the scheduler's job id, so a caller holding either can INSPECT.  The
  // wire job id ("job") is stamped by the POLL handler, which owns it.
  if (outcome.trace_id != 0) {
    response.Set("trace_id", trace::TraceIdHex(outcome.trace_id));
  }
  response.Set("sched_job_id", outcome.job_id);
  if (outcome.status.ok()) {
    response.Set("algo",
                 std::string(serve::AlgorithmName(static_cast<serve::Algorithm>(
                     outcome.payload.index()))));
    response.Set("modeled_ms", outcome.modeled_ms);
    response.Set("transfer_ms", outcome.modeled_transfer_ms);
    response.Set("cache_hit", outcome.cache_hit);
    response.Set("fingerprint",
                 FingerprintHex(serve::FingerprintPayload(outcome.payload)));
    if (outcome.gang_devices > 1) {
      response.Set("gang_devices", static_cast<uint64_t>(outcome.gang_devices));
      response.Set("exchange_bytes", outcome.exchange_bytes);
      response.Set("exchange_rounds", outcome.exchange_rounds);
    }
    if (outcome.streamed) {
      // Out-of-core streamed execution (submit field "ooc": true).
      response.Set("streamed", true);
      response.Set("ooc_shards", static_cast<uint64_t>(outcome.ooc_shards));
      response.Set("ooc_staged_bytes", outcome.ooc_staged_bytes);
      response.Set("ooc_overlap_speedup", outcome.ooc_overlap_speedup);
    }
    if (outcome.job_profile.num_kernels > 0) {
      response.Set("profile", JobProfileToJson(outcome.job_profile));
    }
  }
  if (outcome.incremental_requested) {
    // Incremental recompute (submit field "incremental": true): whether
    // the delta path actually ran, and why not when it did not — the
    // silent-fallback observability this field exists for.
    response.Set("incremental", outcome.incremental);
    if (!outcome.fallback_reason.empty()) {
      response.Set("fallback_reason", outcome.fallback_reason);
    }
    response.Set("version", outcome.result_version);
  }
  return response;
}

Json JobProfileToJson(const prof::JobProfile& profile) {
  Json p = Json::MakeObject();
  p.Set("num_kernels", profile.num_kernels);
  p.Set("total_ms", profile.total_ms);
  p.Set("total_cycles", profile.total_cycles);
  p.Set("warp_inst_issued", profile.warp_inst_issued);
  p.Set("branches", profile.branches);
  p.Set("divergent_branches", profile.divergent_branches);
  p.Set("dram_bytes", profile.dram_bytes);
  p.Set("divergent_branch_ratio", profile.divergent_branch_ratio);
  p.Set("gld_efficiency", profile.gld_efficiency);
  p.Set("gst_efficiency", profile.gst_efficiency);
  p.Set("l1_hit_rate", profile.l1_hit_rate);
  p.Set("l2_hit_rate", profile.l2_hit_rate);
  p.Set("achieved_occupancy", profile.achieved_occupancy);
  p.Set("exposed_latency_cycles", profile.exposed_latency_cycles);
  Json top = Json::MakeArray();
  for (const prof::JobKernelEntry& entry : profile.top_kernels) {
    Json row = Json::MakeObject();
    row.Set("kernel", entry.kernel_name);
    row.Set("launches", entry.launches);
    row.Set("cycles", entry.cycles);
    row.Set("time_ms", entry.time_ms);
    top.PushBack(std::move(row));
  }
  p.Set("top_kernels", std::move(top));
  return p;
}

Json TraceEventToJson(const trace::TraceEvent& event) {
  Json e = Json::MakeObject();
  e.Set("name", event.name);
  e.Set("cat", event.category);
  e.Set("track", event.track);
  e.Set("ts_us", event.ts_us);
  e.Set("dur_us", event.dur_us);
  e.Set("ph", std::string(1, event.phase));
  if (!event.args.empty()) {
    Json args = Json::MakeObject();
    for (const trace::TraceArg& arg : event.args) {
      if (arg.is_number) {
        char* end = nullptr;
        args.Set(arg.key, std::strtod(arg.value.c_str(), &end));
      } else {
        args.Set(arg.key, arg.value);
      }
    }
    e.Set("args", std::move(args));
  }
  return e;
}

Json JobRecordToJson(const serve::FlightRecorder::JobRecord& record,
                     bool with_spans) {
  Json r = Json::MakeObject();
  r.Set("trace_id", trace::TraceIdHex(record.trace_id));
  if (record.wire_job_id != 0) r.Set("job", record.wire_job_id);
  r.Set("sched_job_id", record.sched_job_id);
  if (!record.tag.empty()) r.Set("tag", record.tag);
  r.Set("tenant", record.tenant.empty() ? "-" : record.tenant);
  r.Set("algo", record.algorithm);
  r.Set("device", record.device);
  r.Set("status", std::string(WireStatusName(record.status.code())));
  if (!record.status.ok()) r.Set("error", record.status.message());
  r.Set("queue_ms", record.queue_wall_ms);
  r.Set("exec_ms", record.exec_wall_ms);
  r.Set("wall_ms", record.wall_ms());
  r.Set("modeled_ms", record.modeled_ms);
  Json triggers = Json::MakeArray();
  for (const std::string& trigger : record.triggers) triggers.PushBack(trigger);
  r.Set("triggers", std::move(triggers));
  if (record.profile.num_kernels > 0) {
    r.Set("profile", JobProfileToJson(record.profile));
  }
  if (with_spans) {
    Json spans = Json::MakeArray();
    for (const trace::TraceEvent& event : record.spans) {
      spans.PushBack(TraceEventToJson(event));
    }
    r.Set("spans", std::move(spans));
    r.Set("spans_dropped", record.spans_dropped);
  }
  return r;
}

Json ErrorResponse(const Status& status) {
  return ErrorResponse(WireStatusName(status.code()), status.message());
}

Json ErrorResponse(std::string_view code, std::string error) {
  Json response = Json::MakeObject();
  response.Set("ok", false);
  response.Set("code", std::string(code));
  response.Set("error", std::move(error));
  return response;
}

}  // namespace adgraph::net
