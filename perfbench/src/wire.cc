#include "wire.h"

#include <cstdio>
#include <list>
#include <map>
#include <thread>

namespace adgraph::perfbench {
namespace {

constexpr double kCallTimeoutMs = 60000;
/// Sleep between POLL sweeps that found nothing done: short against the
/// jobs' milliseconds, long enough that polling does not compete with the
/// workers for the host's cores.
constexpr double kIdleSleepMs = 1.0;
/// Windows a closed loop's timed phase is cut into (SetWindowMetrics).
constexpr size_t kClosedLoopWindows = 10;

}  // namespace

Result<std::unique_ptr<ServeStack>> ServeStack::Start(
    const std::vector<const vgpu::ArchConfig*>& pool,
    net::Server::GraphMap graphs) {
  std::unique_ptr<ServeStack> stack(new ServeStack());
  serve::Scheduler::Options options;
  for (const vgpu::ArchConfig* arch : pool) {
    options.devices.push_back({arch, vgpu::Device::Options{}});
  }
  ADGRAPH_ASSIGN_OR_RETURN(stack->scheduler_,
                           serve::Scheduler::Create(std::move(options)));
  ADGRAPH_ASSIGN_OR_RETURN(
      stack->server_, net::Server::Start(stack->scheduler_.get(),
                                         std::move(graphs),
                                         net::ServerOptions{}));
  return stack;
}

ServeStack::~ServeStack() {
  if (server_ != nullptr) server_->Shutdown();
  if (scheduler_ != nullptr) {
    scheduler_->Drain();
    scheduler_->Shutdown();
  }
}

Result<net::Client> OpenSession(uint16_t port) {
  ADGRAPH_ASSIGN_OR_RETURN(net::Client client,
                           net::Client::Connect("127.0.0.1", port));
  ADGRAPH_ASSIGN_OR_RETURN(net::Json hello, client.Hello("perfbench"));
  if (!hello.GetBool("ok", false)) {
    return Status::Internal("HELLO refused: " + hello.Dump());
  }
  return client;
}

namespace {

net::Json SubmitRequest(const WireJob& job, uint64_t op) {
  net::Json request = net::Json::MakeObject();
  request.Set("op", "SUBMIT");
  request.Set("graph", job.graph);
  request.Set("algo", job.algo);
  request.Set("arch", job.arch);
  request.Set("params", job.params);
  if (job.incremental) request.Set("incremental", true);
  if (op != 0) request.Set("trace_id", Hex64(op));
  return request;
}

net::Json PollRequest(uint64_t wire_job) {
  net::Json request = net::Json::MakeObject();
  request.Set("op", "POLL");
  request.Set("job", wire_job);
  return request;
}

/// One outstanding SUBMIT of a closed-loop connection.
struct Pending {
  WireJob job;
  uint64_t op = 0;
  uint64_t wire_job = 0;
  bool traced = false;
  Clock::time_point submitted;
  Clock::time_point submit_done;
  double poll_rtt_ms = 0;
  uint64_t polls = 0;
  /// POLL bounds, kept only for traced operations.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> poll_spans;
};

void ReadDoneResponse(const net::Json& r, WireOp* op) {
  const std::string status = r.GetString("status", "");
  if (status != "ok") {
    op->error = "job " + std::to_string(op->index) + " status " + status +
                ": " + r.GetString("error", "");
    return;
  }
  op->algo = r.GetString("algo", "?");
  op->fingerprint = r.GetString("fingerprint", "");
  op->queue_ms = r.GetNumber("queue_ms", 0);
  op->exec_ms = r.GetNumber("exec_ms", 0);
  op->modeled_ms = r.GetNumber("modeled_ms", 0);
  op->cache_hit = r.GetBool("cache_hit", false);
  op->incremental = r.GetBool("incremental", false);
  if (const net::Json* p = r.Find("profile")) {
    op->warp_inst = p->GetNumber("warp_inst_issued", 0);
    op->kernels = p->GetNumber("num_kernels", 0);
    op->dram_bytes = p->GetNumber("dram_bytes", 0);
    op->l1_hit_rate = p->GetNumber("l1_hit_rate", 0);
    op->l2_hit_rate = p->GetNumber("l2_hit_rate", 0);
    op->divergent_branch_ratio = p->GetNumber("divergent_branch_ratio", 0);
    op->gld_efficiency = p->GetNumber("gld_efficiency", 0);
  }
}

void RecordTrace(const Pending& p, Clock::time_point done) {
  Tracer& tracer = Tracer::Get();
  const uint64_t root =
      tracer.RecordSpan("job:" + p.job.algo, "bench", p.op, 0, p.submitted,
                        done);
  tracer.RecordSpan("net.submit", "net", p.op, root, p.submitted,
                    p.submit_done);
  for (const auto& [start, end] : p.poll_spans) {
    tracer.RecordSpan("net.poll", "net", p.op, root, start, end);
  }
}

void ConnectionLoop(uint16_t port, const ClosedLoopOptions& options,
                    const NextJob& next, size_t connection,
                    TraceSlices* slices, Clock::time_point start,
                    Clock::time_point deadline, std::vector<WireOp>* ops) {
  auto session = OpenSession(port);
  if (!session.ok()) {
    WireOp failed;
    failed.error = "connect: " + session.status().ToString();
    ops->push_back(std::move(failed));
    return;
  }
  net::Client& client = *session;
  std::list<Pending> pending;
  uint64_t seq = 0;
  while (true) {
    while (pending.size() < options.window && Clock::now() < deadline) {
      Pending p;
      p.job = next(connection, seq);
      p.op = OperationId(options.seed, (uint64_t(connection) << 32) + seq);
      ++seq;
      p.traced = slices->TracedNow();
      p.submitted = Clock::now();
      auto response = client.Call(SubmitRequest(p.job, p.op), kCallTimeoutMs);
      p.submit_done = Clock::now();
      if (!response.ok() || !response->GetBool("ok", false)) {
        WireOp failed;
        failed.index = p.job.index;
        failed.error = "SUBMIT " + p.job.algo + ": " +
                       (response.ok() ? response->Dump()
                                      : response.status().ToString());
        ops->push_back(std::move(failed));
        continue;
      }
      p.wire_job = static_cast<uint64_t>(response->GetNumber("job", 0));
      pending.push_back(std::move(p));
    }
    if (pending.empty()) break;
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      const auto poll_start = Clock::now();
      auto response = client.Call(PollRequest(it->wire_job), kCallTimeoutMs);
      const auto end = Clock::now();
      it->polls += 1;
      it->poll_rtt_ms += MsBetween(poll_start, end);
      if (it->traced) it->poll_spans.emplace_back(poll_start, end);
      const bool ok = response.ok() && response->GetBool("ok", false);
      if (ok && !response->GetBool("done", false)) {
        ++it;
        continue;
      }
      WireOp op;
      op.index = it->job.index;
      op.done_s = MsBetween(start, end) / 1e3;
      op.latency_ms = MsBetween(it->submitted, end);
      op.submit_rtt_ms = MsBetween(it->submitted, it->submit_done);
      op.poll_rtt_ms = it->poll_rtt_ms;
      op.polls = it->polls;
      if (ok) {
        ReadDoneResponse(*response, &op);
      } else {
        op.error = "POLL " + it->job.algo + ": " +
                   (response.ok() ? response->Dump()
                                  : response.status().ToString());
      }
      if (it->traced) RecordTrace(*it, end);
      slices->CountDone(it->traced);
      ops->push_back(std::move(op));
      it = pending.erase(it);
      progressed = true;
    }
    if (!progressed) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kIdleSleepMs));
    }
  }
}

}  // namespace

std::vector<WireOp> RunClosedLoop(uint16_t port,
                                  const ClosedLoopOptions& options,
                                  const NextJob& next, TraceSlices* slices,
                                  double* wall_s) {
  std::vector<std::vector<WireOp>> per_connection(options.connections);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < options.connections; ++c) {
      threads.emplace_back([&, c] {
        ConnectionLoop(port, options, next, c, slices, start, deadline,
                       &per_connection[c]);
      });
    }
  }
  *wall_s = MsBetween(start, Clock::now()) / 1e3;
  std::vector<WireOp> all;
  for (auto& ops : per_connection) {
    for (auto& op : ops) all.push_back(std::move(op));
  }
  return all;
}

std::vector<Window> ClosedLoopWindows(const std::vector<WireOp>& ops,
                                      double phase_s) {
  std::vector<std::pair<double, double>> done;
  for (const WireOp& op : ops) done.emplace_back(op.done_s, op.latency_ms);
  return CountWindows(std::move(done), phase_s, kClosedLoopWindows);
}

void AddProfile(VgpuTotals* totals, const WireOp& op) {
  totals->AddOp(op.warp_inst, op.kernels, op.dram_bytes, op.l1_hit_rate,
                op.l2_hit_rate, op.divergent_branch_ratio, op.gld_efficiency);
}

std::string ClassLatencyNote(const std::vector<WireOp>& ops) {
  std::map<std::string, std::vector<double>> by_algo;
  for (const WireOp& op : ops) by_algo[op.algo].push_back(op.latency_ms);
  std::string note = "latency by algorithm (n, p50, p95 ms):";
  char buf[96];
  for (const auto& [algo, latencies] : by_algo) {
    std::snprintf(buf, sizeof(buf), " %s %zu %.2f %.2f", algo.c_str(),
                  latencies.size(), Quantile(latencies, 0.5),
                  Quantile(latencies, 0.95));
    note += buf;
  }
  return note;
}

Result<net::Json> SubmitAndWait(net::Client* client, const WireJob& job) {
  ADGRAPH_ASSIGN_OR_RETURN(net::Json submitted,
                           client->Call(SubmitRequest(job, 0), kCallTimeoutMs));
  if (!submitted.GetBool("ok", false)) {
    return Status::Internal("SUBMIT refused: " + submitted.Dump());
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      net::Json done,
      client->WaitJob(static_cast<uint64_t>(submitted.GetNumber("job", 0)),
                      kCallTimeoutMs, 0.2));
  if (done.GetString("status", "") != "ok") {
    return Status::Internal(job.algo + " failed: " + done.Dump());
  }
  return done;
}

void SetServeLayerMetrics(Outcome* out, const std::vector<WireOp>& ops) {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::map<std::string, std::pair<double, double>> engine_ms;
  double submit_rtt = 0;
  double poll_rtt = 0;
  double polls = 0;
  double wire_ms = 0;
  for (const WireOp& op : ops) {
    queue_ms.push_back(op.queue_ms);
    exec_ms.push_back(op.exec_ms);
    auto& [sum, count] = engine_ms[op.algo];
    sum += op.exec_ms;
    count += 1;
    submit_rtt += op.submit_rtt_ms;
    poll_rtt += op.poll_rtt_ms;
    polls += double(op.polls);
    wire_ms += op.latency_ms - op.queue_ms - op.exec_ms;
  }
  const auto n = static_cast<uint64_t>(queue_ms.size());
  SetLayer(out, "serve.queue_p50_ms", Quantile(queue_ms, 0.5), n);
  SetLayer(out, "serve.queue_p95_ms", Quantile(queue_ms, 0.95), n);
  SetLayer(out, "serve.exec_p50_ms", Quantile(exec_ms, 0.5), n);
  SetLayer(out, "serve.exec_p95_ms", Quantile(exec_ms, 0.95), n);
  for (const auto& [algo, sum_count] : engine_ms) {
    SetLayer(out, "engine." + algo + ".host_ms",
             PerOp(sum_count.first, sum_count.second),
             static_cast<uint64_t>(sum_count.second));
  }
  SetLayer(out, "net.submit_rtt_ms", PerOp(submit_rtt, double(n)), n);
  SetLayer(out, "net.poll_rtt_ms", PerOp(poll_rtt, polls),
           static_cast<uint64_t>(polls));
  SetLayer(out, "net.polls_per_job", PerOp(polls, double(n)), n);
  SetLayer(out, "net.wire_ms", PerOp(wire_ms, double(n)), n);
}

}  // namespace adgraph::perfbench
