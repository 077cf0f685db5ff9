#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

/// \file
/// The serve workloads' side of the wire: an in-process scheduler + TCP
/// front door with production defaults, and a closed-loop client that keeps
/// a window of SUBMITs outstanding per connection and POLLs them to done.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "serve/scheduler.h"
#include "vgpu/arch.h"
#include "workloads.h"

namespace adgraph::perfbench {

/// Scheduler + net::Server on one device per listed arch.  Every option
/// not set here keeps its production default (residency cache, job
/// profiles and flight recorder on; metrics sampler off; no occupancy
/// floor).
class ServeStack {
 public:
  static Result<std::unique_ptr<ServeStack>> Start(
      const std::vector<const vgpu::ArchConfig*>& pool,
      net::Server::GraphMap graphs);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  uint16_t port() const { return server_->port(); }
  serve::Scheduler* scheduler() { return scheduler_.get(); }
  net::Server* server() { return server_.get(); }

 private:
  ServeStack() = default;
  std::unique_ptr<serve::Scheduler> scheduler_;
  std::unique_ptr<net::Server> server_;
};

/// Connects to the loopback server and completes HELLO.
Result<net::Client> OpenSession(uint16_t port);

/// One SUBMIT of a workload's job list.
struct WireJob {
  size_t index = 0;  ///< position in the workload's job list
  std::string graph;
  std::string algo;
  std::string arch;
  net::Json params = net::Json::MakeObject();
  bool incremental = false;
};

/// One completed operation as the client saw it, with the fields of its
/// done POLL response the workloads use (kept compact: a run holds
/// thousands, and their memory counts in peak_rss_mb).
struct WireOp {
  size_t index = 0;
  double done_s = 0;        ///< completion, seconds since the phase began
  double latency_ms = 0;     ///< SUBMIT sent -> POLL returned done
  double submit_rtt_ms = 0;
  double poll_rtt_ms = 0;    ///< summed over this job's POLLs
  uint64_t polls = 0;
  /// "" when the job ran OK; else the transport, protocol or status error.
  std::string error;
  std::string algo;
  std::string fingerprint;
  double queue_ms = 0;
  double exec_ms = 0;
  double modeled_ms = 0;
  bool cache_hit = false;
  bool incremental = false;  ///< the warm-started (delta) path ran
  /// The POLL "profile" (all 0 when absent).
  double warp_inst = 0;
  double kernels = 0;
  double dram_bytes = 0;
  double l1_hit_rate = 0;
  double l2_hit_rate = 0;
  double divergent_branch_ratio = 0;
  double gld_efficiency = 0;
};

struct ClosedLoopOptions {
  size_t connections = 2;
  size_t window = 1;  ///< SUBMITs each connection keeps outstanding
  double seconds = 10;
  uint64_t seed = 0;  ///< of the operation ids (OperationId)
};

/// The job a connection submits n-th: next(connection, n).  Called from
/// the connection's own thread; each connection's sequence is fixed, so
/// what a connection runs does not depend on timing.
using NextJob = std::function<WireJob(size_t, uint64_t)>;

/// Runs the closed loop: each connection keeps up to `window` SUBMITs
/// outstanding.  Stops submitting after `seconds`, drains, and returns
/// every operation (completed or failed).  `wall_s` receives the phase's
/// wall time including the drain.
std::vector<WireOp> RunClosedLoop(uint16_t port,
                                  const ClosedLoopOptions& options,
                                  const NextJob& next, TraceSlices* slices,
                                  double* wall_s);

/// The closed loop's metric windows (CountWindows) over `ops`.
std::vector<Window> ClosedLoopWindows(const std::vector<WireOp>& ops,
                                      double phase_s);

/// Submits one job on `client` and POLLs it to done (set-up and warm-up).
Result<net::Json> SubmitAndWait(net::Client* client, const WireJob& job);

/// Adds `op`'s POLL profile to `totals`.
void AddProfile(VgpuTotals* totals, const WireOp& op);

/// Per-algorithm latency p50/p95 of `ops`, one printed note line.
std::string ClassLatencyNote(const std::vector<WireOp>& ops);

/// Serve-layer per-layer metrics over the given completed reads: queue and
/// exec percentiles, exec per algorithm, POLL round trips, polls per job
/// and wire time (client latency minus queue and exec).
void SetServeLayerMetrics(Outcome* out, const std::vector<WireOp>& ops);

}  // namespace adgraph::perfbench

#endif  // PERFBENCH_WIRE_H_
