// google-benchmark microbenchmarks of the substrate hot paths: coalescer,
// cache model, bank-conflict model, PRNG, generators, CSR construction,
// device scan, SpMV, and a small end-to-end BFS.  These guard the
// *simulator's own* performance — the wall-clock cost of the paper
// reproduction — rather than modeled GPU time.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "core/api.h"
#include "core/device_graph.h"
#include "core/residency.h"
#include "core/spmv.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "runtime/runtime.h"
#include "util/random.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/mem/cache.h"
#include "vgpu/mem/coalescer.h"
#include "vgpu/mem/shared_mem.h"

namespace adgraph {
namespace {

void BM_RngNext64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next64());
}
BENCHMARK(BM_RngNext64);

void BM_CoalesceSequential(benchmark::State& state) {
  vgpu::Lanes<uint64_t> addrs;
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = i * 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vgpu::Coalesce(addrs, vgpu::FullMask(32), 4, 32));
  }
}
BENCHMARK(BM_CoalesceSequential);

void BM_CoalesceScattered(benchmark::State& state) {
  vgpu::Lanes<uint64_t> addrs;
  Rng rng(3);
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = rng.Uniform(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vgpu::Coalesce(addrs, vgpu::FullMask(32), 4, 32));
  }
}
BENCHMARK(BM_CoalesceScattered);

void BM_CacheAccess(benchmark::State& state) {
  vgpu::CacheModel cache(40 << 20, 128, 16);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(rng.Uniform(1ull << 28)));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_BankConflictDegree(benchmark::State& state) {
  vgpu::SharedMemory smem(16 << 10, 32);
  vgpu::Lanes<uint64_t> offsets;
  Rng rng(7);
  for (uint32_t i = 0; i < 32; ++i) offsets[i] = rng.Uniform(4096) * 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smem.ConflictDegree(offsets, vgpu::FullMask(32), 4));
  }
}
BENCHMARK(BM_BankConflictDegree);

void BM_GenerateRmat(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = static_cast<uint32_t>(state.range(0));
  params.edge_factor = 8;
  params.seed = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GenerateRmat(params));
  }
  state.SetItemsProcessed(state.iterations() *
                          (params.edge_factor * (1 << params.scale)));
}
BENCHMARK(BM_GenerateRmat)->Arg(12)->Arg(14);

void BM_CsrFromCoo(benchmark::State& state) {
  auto coo = graph::GenerateRmat({.scale = 14, .edge_factor = 8, .seed = 13})
                 .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsrGraph::FromCoo(coo));
  }
  state.SetItemsProcessed(state.iterations() * coo.num_edges());
}
BENCHMARK(BM_CsrFromCoo);

void BM_DeviceScan(benchmark::State& state) {
  vgpu::Device dev(vgpu::A100Config());
  const uint64_t n = state.range(0);
  std::vector<uint32_t> host(n, 1);
  auto in = rt::DeviceBuffer<uint32_t>::FromHost(&dev, host).value();
  auto out = rt::DeviceBuffer<uint32_t>::Create(&dev, n).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::primitives::ExclusiveScanU32(&dev, in.ptr(), out.ptr(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DeviceScan)->Arg(1 << 12)->Arg(1 << 16);

void BM_DeviceSpmv(benchmark::State& state) {
  vgpu::Device dev(vgpu::A100Config());
  auto coo = graph::GenerateRmat({.scale = 12, .edge_factor = 8, .seed = 17})
                 .value();
  graph::AttachRandomWeights(&coo, 0.0, 1.0, 18);
  auto g = graph::CsrGraph::FromCoo(coo).value();
  auto d = core::DeviceCsr::Upload(&dev, g).value();
  auto x = rt::DeviceBuffer<double>::CreateZeroed(&dev, g.num_vertices())
               .value();
  auto y = rt::DeviceBuffer<double>::Create(&dev, g.num_vertices()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RunSpmvOnDevice(&dev, d, x.ptr(), y.ptr()));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DeviceSpmv);

/// Hands every run the same pre-uploaded graph, so a timed iteration is
/// the traversal alone.
class PreUploaded : public core::GraphResidency {
 public:
  explicit PreUploaded(core::DeviceCsr d)
      : d_(std::make_shared<const core::DeviceCsr>(std::move(d))) {}
  Result<core::ResidentCsr> Acquire(vgpu::Device*, const graph::CsrGraph&,
                                    core::GraphVariant) override {
    return core::ResidentCsr(d_, nullptr);
  }

 private:
  std::shared_ptr<const core::DeviceCsr> d_;
};

void BM_DeviceBfs(benchmark::State& state) {
  vgpu::Device dev(vgpu::A100Config());
  auto coo = graph::GenerateRmat({.scale = 12, .edge_factor = 8, .seed = 19})
                 .value();
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  auto g = graph::CsrGraph::FromCoo(coo, sym).value();
  PreUploaded resident(core::DeviceCsr::Upload(&dev, g).value());
  core::BfsOptions options;
  options.assume_symmetric = true;
  // Vertex 0 is isolated in this R-MAT; a hub reaches the giant component.
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(options.source)) options.source = v;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Run<core::Algo::kBfs>(&dev, g, options, &resident));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DeviceBfs);

}  // namespace
}  // namespace adgraph

BENCHMARK_MAIN();
