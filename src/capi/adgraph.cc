#include "capi/adgraph.h"

#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "prof/metrics.h"
#include "trace/trace.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

// Opaque handle definitions.  C linkage callers only see the pointers.
struct adgraphContext {
  std::unique_ptr<adgraph::vgpu::Device> device;
  /// Detail of the most recent failing call on this handle; cleared by the
  /// next successful call.  Per-handle, so callers sharing a handle across
  /// threads must serialize (documented in the header).
  std::string last_error;
  /// Non-empty while this handle holds the global trace window open; the
  /// JSON is flushed at adgraphDestroy if the caller never closed it.
  std::string trace_path;
  /// Kernel-log position when the most recent algorithm call started; the
  /// window [last_run_start, log.size()) is what adgraphGetJobProfile
  /// attributes (v2.4).
  size_t last_run_start = 0;
};

struct adgraphGraphDescrStruct {
  adgraph::graph::CsrGraph graph;
  bool has_structure = false;
  /// Lazily created by adgraphApplyEdgeUpdates; reset whenever the
  /// structure or weights are replaced wholesale.
  std::unique_ptr<adgraph::graph::DeltaGraph> delta;
};

namespace {

using adgraph::Status;
using adgraph::StatusCode;

/// The one StatusCode -> adgraphStatus_t table (also exported as
/// adgraphStatusFromStatusCode).  Every library error category has its own
/// C value in v2; the switch is exhaustive so a new StatusCode fails to
/// compile until mapped here.
adgraphStatus_t ToC(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return ADGRAPH_STATUS_SUCCESS;
    case StatusCode::kInvalidArgument:
      return ADGRAPH_STATUS_INVALID_VALUE;
    case StatusCode::kOutOfMemory:
      return ADGRAPH_STATUS_ALLOC_FAILED;
    case StatusCode::kNotFound:
      return ADGRAPH_STATUS_NOT_FOUND;
    case StatusCode::kAlreadyExists:
      return ADGRAPH_STATUS_ALREADY_EXISTS;
    case StatusCode::kOutOfRange:
      return ADGRAPH_STATUS_OUT_OF_RANGE;
    case StatusCode::kUnimplemented:
      return ADGRAPH_STATUS_UNSUPPORTED;
    case StatusCode::kInternal:
      return ADGRAPH_STATUS_INTERNAL_ERROR;
    case StatusCode::kIOError:
      return ADGRAPH_STATUS_IO_ERROR;
    case StatusCode::kDeadlock:
      return ADGRAPH_STATUS_DEADLOCK;
    case StatusCode::kResourceExhausted:
      return ADGRAPH_STATUS_RESOURCE_EXHAUSTED;
    case StatusCode::kUnavailable:
      return ADGRAPH_STATUS_UNAVAILABLE;
    case StatusCode::kDeadlineExceeded:
      return ADGRAPH_STATUS_DEADLINE_EXCEEDED;
    case StatusCode::kFailedPrecondition:
      return ADGRAPH_STATUS_FAILED_PRECONDITION;
    case StatusCode::kCancelled:
      return ADGRAPH_STATUS_CANCELLED;
  }
  return ADGRAPH_STATUS_INTERNAL_ERROR;
}

bool Ready(adgraphHandle_t handle) {
  return handle != nullptr && handle->device != nullptr;
}

bool HasStructure(adgraphGraphDescr_t descr) {
  return descr != nullptr && descr->has_structure;
}

/// Records `message` as the handle's last error and returns `code`.
adgraphStatus_t Fail(adgraphHandle_t handle, adgraphStatus_t code,
                     std::string message) {
  if (handle != nullptr) handle->last_error = std::move(message);
  return code;
}

adgraphStatus_t Fail(adgraphHandle_t handle, const Status& status) {
  return Fail(handle, ToC(status.code()), status.ToString());
}

/// Clears the handle's last error and returns SUCCESS.
adgraphStatus_t Succeed(adgraphHandle_t handle) {
  if (handle != nullptr) handle->last_error.clear();
  return ADGRAPH_STATUS_SUCCESS;
}

/// GRAPH_TYPE_MISMATCH with a uniform message for structureless descriptors.
adgraphStatus_t NoStructure(adgraphHandle_t handle, const char* op) {
  return Fail(handle, ADGRAPH_STATUS_GRAPH_TYPE_MISMATCH,
              std::string(op) +
                  ": graph descriptor has no structure "
                  "(call adgraphSetGraphStructure first)");
}

/// Opens the attribution window of adgraphGetJobProfile: every algorithm
/// entry point calls this once its arguments validate, so the window covers
/// exactly the launches of the most recent run.
void BeginRun(adgraphHandle_t handle) {
  handle->last_run_start = handle->device->kernel_log().size();
}

}  // namespace

extern "C" {

const char* adgraphStatusGetString(adgraphStatus_t status) {
  switch (status) {
    case ADGRAPH_STATUS_SUCCESS:
      return "ADGRAPH_STATUS_SUCCESS";
    case ADGRAPH_STATUS_NOT_INITIALIZED:
      return "ADGRAPH_STATUS_NOT_INITIALIZED";
    case ADGRAPH_STATUS_ALLOC_FAILED:
      return "ADGRAPH_STATUS_ALLOC_FAILED";
    case ADGRAPH_STATUS_INVALID_VALUE:
      return "ADGRAPH_STATUS_INVALID_VALUE";
    case ADGRAPH_STATUS_INTERNAL_ERROR:
      return "ADGRAPH_STATUS_INTERNAL_ERROR";
    case ADGRAPH_STATUS_NOT_FOUND:
      return "ADGRAPH_STATUS_NOT_FOUND";
    case ADGRAPH_STATUS_ALREADY_EXISTS:
      return "ADGRAPH_STATUS_ALREADY_EXISTS";
    case ADGRAPH_STATUS_OUT_OF_RANGE:
      return "ADGRAPH_STATUS_OUT_OF_RANGE";
    case ADGRAPH_STATUS_UNSUPPORTED:
      return "ADGRAPH_STATUS_UNSUPPORTED";
    case ADGRAPH_STATUS_IO_ERROR:
      return "ADGRAPH_STATUS_IO_ERROR";
    case ADGRAPH_STATUS_DEADLOCK:
      return "ADGRAPH_STATUS_DEADLOCK";
    case ADGRAPH_STATUS_RESOURCE_EXHAUSTED:
      return "ADGRAPH_STATUS_RESOURCE_EXHAUSTED";
    case ADGRAPH_STATUS_GRAPH_TYPE_MISMATCH:
      return "ADGRAPH_STATUS_GRAPH_TYPE_MISMATCH";
    case ADGRAPH_STATUS_UNAVAILABLE:
      return "ADGRAPH_STATUS_UNAVAILABLE";
    case ADGRAPH_STATUS_DEADLINE_EXCEEDED:
      return "ADGRAPH_STATUS_DEADLINE_EXCEEDED";
    case ADGRAPH_STATUS_FAILED_PRECONDITION:
      return "ADGRAPH_STATUS_FAILED_PRECONDITION";
    case ADGRAPH_STATUS_CANCELLED:
      return "ADGRAPH_STATUS_CANCELLED";
  }
  return "ADGRAPH_STATUS_UNKNOWN";
}

adgraphStatus_t adgraphGetVersion(int* major, int* minor, int* patch) {
  if (major != nullptr) *major = ADGRAPH_VERSION_MAJOR;
  if (minor != nullptr) *minor = ADGRAPH_VERSION_MINOR;
  if (patch != nullptr) *patch = ADGRAPH_VERSION_PATCH;
  return ADGRAPH_STATUS_SUCCESS;
}

adgraphStatus_t adgraphStatusFromStatusCode(int status_code) {
  if (status_code < static_cast<int>(StatusCode::kOk) ||
      status_code > static_cast<int>(StatusCode::kCancelled)) {
    return ADGRAPH_STATUS_INTERNAL_ERROR;
  }
  return ToC(static_cast<StatusCode>(status_code));
}

const char* adgraphGetLastErrorString(adgraphHandle_t handle) {
  if (handle == nullptr) return "";
  return handle->last_error.c_str();
}

adgraphStatus_t adgraphCreate(adgraphHandle_t* handle, const char* gpu_name) {
  if (handle == nullptr) return ADGRAPH_STATUS_INVALID_VALUE;
  auto arch = adgraph::vgpu::PaperGpuByName(gpu_name ? gpu_name : "A100");
  if (!arch.ok()) return ADGRAPH_STATUS_NOT_FOUND;
  auto* context = new adgraphContext();
  context->device = std::make_unique<adgraph::vgpu::Device>(**arch);
  *handle = context;
  return ADGRAPH_STATUS_SUCCESS;
}

adgraphStatus_t adgraphDestroy(adgraphHandle_t handle) {
  if (handle == nullptr) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!handle->trace_path.empty()) {
    // The caller opened a trace window through this handle and never
    // closed it; flush the JSON on the way out (best-effort).
    Status stop_status = adgraph::trace::Stop();
    (void)stop_status;
  }
  delete handle;
  return ADGRAPH_STATUS_SUCCESS;
}

adgraphStatus_t adgraphSetTraceFile(adgraphHandle_t handle, const char* path) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (path == nullptr) {
    handle->trace_path.clear();
    Status status = adgraph::trace::Stop();
    if (!status.ok()) return Fail(handle, status);
    return Succeed(handle);
  }
  Status status = adgraph::trace::Start({.path = path});
  if (!status.ok()) return Fail(handle, status);
  handle->trace_path = path;
  return Succeed(handle);
}

adgraphStatus_t adgraphGetDeviceTimeMs(adgraphHandle_t handle,
                                       double* time_ms) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (time_ms == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphGetDeviceTimeMs: time_ms is NULL");
  }
  *time_ms = handle->device->elapsed_ms();
  return Succeed(handle);
}

adgraphStatus_t adgraphCreateGraphDescr(adgraphHandle_t handle,
                                        adgraphGraphDescr_t* descr) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (descr == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphCreateGraphDescr: descr is NULL");
  }
  *descr = new adgraphGraphDescrStruct();
  return Succeed(handle);
}

adgraphStatus_t adgraphDestroyGraphDescr(adgraphHandle_t handle,
                                         adgraphGraphDescr_t descr) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (descr == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphDestroyGraphDescr: descr is NULL");
  }
  delete descr;
  return Succeed(handle);
}

adgraphStatus_t adgraphSetGraphStructure(adgraphHandle_t handle,
                                         adgraphGraphDescr_t descr,
                                         uint32_t num_vertices,
                                         uint64_t num_edges,
                                         const uint64_t* row_offsets,
                                         const uint32_t* col_indices) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (descr == nullptr || row_offsets == nullptr ||
      (col_indices == nullptr && num_edges > 0)) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphSetGraphStructure: NULL descriptor or arrays");
  }
  std::vector<adgraph::graph::eid_t> rows(row_offsets,
                                          row_offsets + num_vertices + 1);
  std::vector<adgraph::graph::vid_t> cols(col_indices,
                                          col_indices + num_edges);
  auto graph = adgraph::graph::CsrGraph::FromArrays(
      num_vertices, std::move(rows), std::move(cols));
  if (!graph.ok()) return Fail(handle, graph.status());
  descr->graph = std::move(graph).value();
  descr->has_structure = true;
  descr->delta.reset();
  return Succeed(handle);
}

adgraphStatus_t adgraphSetEdgeWeights(adgraphHandle_t handle,
                                      adgraphGraphDescr_t descr,
                                      const double* weights) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) {
    return NoStructure(handle, "adgraphSetEdgeWeights");
  }
  if (weights == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphSetEdgeWeights: weights is NULL");
  }
  std::vector<adgraph::graph::weight_t> w(
      weights, weights + descr->graph.num_edges());
  auto rebuilt = adgraph::graph::CsrGraph::FromArrays(
      descr->graph.num_vertices(), descr->graph.row_offsets(),
      descr->graph.col_indices(), std::move(w));
  if (!rebuilt.ok()) return Fail(handle, rebuilt.status());
  descr->graph = std::move(rebuilt).value();
  descr->delta.reset();
  return Succeed(handle);
}

adgraphStatus_t adgraphApplyEdgeUpdates(adgraphHandle_t handle,
                                        adgraphGraphDescr_t descr,
                                        const adgraphEdgeUpdate_t* updates,
                                        size_t num_updates,
                                        uint64_t* version_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) {
    return NoStructure(handle, "adgraphApplyEdgeUpdates");
  }
  if (updates == nullptr && num_updates > 0) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphApplyEdgeUpdates: updates is NULL");
  }
  if (descr->delta == nullptr) {
    auto created = adgraph::graph::DeltaGraph::Create(descr->graph);
    if (!created.ok()) return Fail(handle, created.status());
    descr->delta = std::make_unique<adgraph::graph::DeltaGraph>(
        std::move(created).value());
  }
  std::vector<adgraph::graph::EdgeUpdate> batch;
  batch.reserve(num_updates);
  for (size_t i = 0; i < num_updates; ++i) {
    adgraph::graph::EdgeUpdate update;
    update.u = updates[i].src;
    update.v = updates[i].dst;
    update.w = updates[i].weight;
    update.insert = updates[i].remove == 0;
    batch.push_back(update);
  }
  auto applied = descr->delta->Apply(batch);
  // Refresh the descriptor's graph with whatever did apply before failing,
  // so the descriptor and its delta never disagree.
  auto snapshot = descr->delta->Snapshot();
  if (!snapshot.ok()) return Fail(handle, snapshot.status());
  descr->graph = **snapshot;
  if (version_out != nullptr) *version_out = descr->delta->version();
  if (!applied.ok()) return Fail(handle, applied.status());
  return Succeed(handle);
}

adgraphStatus_t adgraphTraversalBfs(adgraphHandle_t handle,
                                    adgraphGraphDescr_t descr,
                                    uint32_t source, int assume_symmetric,
                                    uint32_t* levels_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) return NoStructure(handle, "adgraphTraversalBfs");
  if (levels_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphTraversalBfs: levels_out is NULL");
  }
  if (source >= descr->graph.num_vertices()) {
    return Fail(handle, ADGRAPH_STATUS_OUT_OF_RANGE,
                "adgraphTraversalBfs: source " + std::to_string(source) +
                    " >= num_vertices " +
                    std::to_string(descr->graph.num_vertices()));
  }
  BeginRun(handle);
  adgraph::core::BfsOptions options;
  options.source = source;
  options.assume_symmetric = assume_symmetric != 0;
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kBfs}, descr->graph,
      adgraph::core::Params(options));
  if (!result.ok()) return Fail(handle, result.status());
  const auto& r = std::get<adgraph::core::BfsResult>(*result);
  std::copy(r.levels.begin(), r.levels.end(), levels_out);
  return Succeed(handle);
}

adgraphStatus_t adgraphTriangleCount(adgraphHandle_t handle,
                                     adgraphGraphDescr_t descr,
                                     uint64_t* triangles_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) return NoStructure(handle, "adgraphTriangleCount");
  if (triangles_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphTriangleCount: triangles_out is NULL");
  }
  BeginRun(handle);
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kTriangleCount},
      descr->graph, adgraph::core::Params(adgraph::core::TcOptions{}));
  if (!result.ok()) return Fail(handle, result.status());
  *triangles_out = std::get<adgraph::core::TcResult>(*result).triangles;
  return Succeed(handle);
}

adgraphStatus_t adgraphPagerank(adgraphHandle_t handle,
                                adgraphGraphDescr_t descr, double alpha,
                                uint32_t max_iterations, double* ranks_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) return NoStructure(handle, "adgraphPagerank");
  if (ranks_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphPagerank: ranks_out is NULL");
  }
  BeginRun(handle);
  adgraph::core::PageRankOptions options;
  options.alpha = alpha;
  options.max_iterations = max_iterations;
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kPageRank}, descr->graph,
      adgraph::core::Params(options));
  if (!result.ok()) return Fail(handle, result.status());
  const auto& r = std::get<adgraph::core::PageRankResult>(*result);
  std::copy(r.ranks.begin(), r.ranks.end(), ranks_out);
  return Succeed(handle);
}

adgraphStatus_t adgraphSssp(adgraphHandle_t handle, adgraphGraphDescr_t descr,
                            uint32_t source, double* distances_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) return NoStructure(handle, "adgraphSssp");
  if (distances_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphSssp: distances_out is NULL");
  }
  if (source >= descr->graph.num_vertices()) {
    return Fail(handle, ADGRAPH_STATUS_OUT_OF_RANGE,
                "adgraphSssp: source " + std::to_string(source) +
                    " >= num_vertices " +
                    std::to_string(descr->graph.num_vertices()));
  }
  BeginRun(handle);
  adgraph::core::SsspOptions options;
  options.source = source;
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kSssp}, descr->graph,
      adgraph::core::Params(options));
  if (!result.ok()) return Fail(handle, result.status());
  const auto& r = std::get<adgraph::core::SsspResult>(*result);
  std::copy(r.distances.begin(), r.distances.end(), distances_out);
  return Succeed(handle);
}

adgraphStatus_t adgraphWidestPath(adgraphHandle_t handle,
                                  adgraphGraphDescr_t descr, uint32_t source,
                                  double* widths_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) return NoStructure(handle, "adgraphWidestPath");
  if (widths_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphWidestPath: widths_out is NULL");
  }
  if (source >= descr->graph.num_vertices()) {
    return Fail(handle, ADGRAPH_STATUS_OUT_OF_RANGE,
                "adgraphWidestPath: source " + std::to_string(source) +
                    " >= num_vertices " +
                    std::to_string(descr->graph.num_vertices()));
  }
  BeginRun(handle);
  adgraph::core::WidestPathOptions options;
  options.source = source;
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kWidestPath}, descr->graph,
      adgraph::core::Params(options));
  if (!result.ok()) return Fail(handle, result.status());
  const auto& r = std::get<adgraph::core::WidestPathResult>(*result);
  std::copy(r.widths.begin(), r.widths.end(), widths_out);
  return Succeed(handle);
}

adgraphStatus_t adgraphExtractSubgraphByVertex(adgraphHandle_t handle,
                                               adgraphGraphDescr_t descr,
                                               adgraphGraphDescr_t subgraph,
                                               const uint32_t* vertices,
                                               size_t num_vertices) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) {
    return NoStructure(handle, "adgraphExtractSubgraphByVertex");
  }
  if (subgraph == nullptr || (vertices == nullptr && num_vertices > 0)) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphExtractSubgraphByVertex: NULL output descriptor or "
                "vertex array");
  }
  if (!descr->graph.has_weights()) {
    return Fail(handle, ADGRAPH_STATUS_GRAPH_TYPE_MISMATCH,
                "adgraphExtractSubgraphByVertex: extraction requires edge "
                "weights (call adgraphSetEdgeWeights first)");
  }
  BeginRun(handle);
  adgraph::core::EsbvOptions options;
  options.vertices.assign(vertices, vertices + num_vertices);
  auto result = adgraph::core::Run(
      handle->device.get(), {adgraph::core::Algo::kEsbv}, descr->graph,
      adgraph::core::Params(std::move(options)));
  if (!result.ok()) return Fail(handle, result.status());
  subgraph->graph =
      std::move(std::get<adgraph::core::EsbvResult>(*result).subgraph);
  subgraph->has_structure = true;
  subgraph->delta.reset();
  return Succeed(handle);
}

adgraphStatus_t adgraphGetJobProfile(adgraphHandle_t handle,
                                     adgraphJobProfile_t* profile_out) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (profile_out == nullptr) {
    return Fail(handle, ADGRAPH_STATUS_INVALID_VALUE,
                "adgraphGetJobProfile: profile_out is NULL");
  }
  const auto& log = handle->device->kernel_log();
  size_t start = handle->last_run_start;
  if (start > log.size()) start = log.size();  // log was reset since the run
  const adgraph::prof::JobProfile profile =
      adgraph::prof::ProfileWindow(log, start);
  adgraphJobProfile_t out{};
  out.num_kernels = profile.num_kernels;
  out.total_ms = profile.total_ms;
  out.total_cycles = profile.total_cycles;
  out.warp_inst_issued = profile.warp_inst_issued;
  out.branches = profile.branches;
  out.divergent_branches = profile.divergent_branches;
  out.dram_bytes = profile.dram_bytes;
  out.divergent_branch_ratio = profile.divergent_branch_ratio;
  out.gld_efficiency = profile.gld_efficiency;
  out.gst_efficiency = profile.gst_efficiency;
  out.l1_hit_rate = profile.l1_hit_rate;
  out.l2_hit_rate = profile.l2_hit_rate;
  out.achieved_occupancy = profile.achieved_occupancy;
  out.exposed_latency_cycles = profile.exposed_latency_cycles;
  *profile_out = out;
  return Succeed(handle);
}

adgraphStatus_t adgraphGetGraphStructure(adgraphHandle_t handle,
                                         adgraphGraphDescr_t descr,
                                         uint32_t* num_vertices,
                                         uint64_t* num_edges,
                                         uint64_t* row_offsets,
                                         uint32_t* col_indices) {
  if (!Ready(handle)) return ADGRAPH_STATUS_NOT_INITIALIZED;
  if (!HasStructure(descr)) {
    return NoStructure(handle, "adgraphGetGraphStructure");
  }
  if (num_vertices != nullptr) *num_vertices = descr->graph.num_vertices();
  if (num_edges != nullptr) *num_edges = descr->graph.num_edges();
  if (row_offsets != nullptr) {
    std::copy(descr->graph.row_offsets().begin(),
              descr->graph.row_offsets().end(), row_offsets);
  }
  if (col_indices != nullptr) {
    std::copy(descr->graph.col_indices().begin(),
              descr->graph.col_indices().end(), col_indices);
  }
  return Succeed(handle);
}

}  // extern "C"
