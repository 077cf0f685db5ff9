#include "bench/bench_common.h"

#include <sys/stat.h>

#include <sstream>

#include "core/api.h"
#include "core/subgraph.h"
#include "graph/generate.h"
#include "prof/session.h"
#include "runtime/runtime.h"
#include "util/logging.h"
#include "util/table.h"

namespace adgraph::bench {
namespace {

/// Per-dataset TC sampled-simulation factor: twitter-mpi's proxy has ~3
/// billion wedges, which exact functional simulation cannot afford;
/// counters, timing and counts extrapolate by the factor (EXPERIMENTS.md
/// "Sampled simulation").
uint32_t TcSampleFor(const graph::DatasetSpec& spec) {
  if (spec.name == "twitter-mpi") return 32;
  if (spec.name == "soc-sinaweibo" || spec.name == "web-uk-2002-all") {
    return 2;
  }
  return 1;
}

/// Runs `algo` on `device`; time_ms and sampled only.
Result<CellResult> Compute(vgpu::Device* device, const DatasetBundle& bundle,
                           Algo algo) {
  CellResult cell;
  switch (algo) {
    case Algo::kBfs: {
      core::BfsOptions options;
      options.source = bundle.bfs_source;
      options.assume_symmetric = true;
      ADGRAPH_ASSIGN_OR_RETURN(
          auto result,
          core::Run<core::Algo::kBfs>(device, bundle.symmetric, options));
      cell.time_ms = result.time_ms;
      break;
    }
    case Algo::kTc: {
      core::TcOptions options = BissonFaticaTc();
      options.vertex_sample = TcSampleFor(bundle.spec);
      ADGRAPH_ASSIGN_OR_RETURN(
          auto uploaded, core::DeviceCsr::Upload(device, bundle.symmetric));
      ADGRAPH_ASSIGN_OR_RETURN(
          auto result,
          core::RunTriangleCountOnDevice(device, uploaded, options));
      cell.time_ms = result.time_ms;
      cell.sampled = result.sampled;
      break;
    }
    case Algo::kEsbv: {
      core::EsbvOptions options;
      options.vertices = bundle.esbv_vertices;
      ADGRAPH_ASSIGN_OR_RETURN(
          auto result,
          core::ExtractSubgraphByVertex(device, bundle.weighted, options));
      cell.time_ms = result.time_ms;
      break;
    }
  }
  return cell;
}

}  // namespace

std::string AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kBfs:
      return "BFS";
    case Algo::kTc:
      return "TC";
    case Algo::kEsbv:
      return "ESBV";
  }
  return "?";
}

Result<BenchConfig> BenchConfig::FromArgs(int argc, const char* const* argv,
                                          std::vector<FlagSpec> extra_flags) {
  extra_flags.insert(
      extra_flags.end(),
      {FlagSpec::Number("extra-divisor", 1), FlagSpec::String("out-dir"),
       FlagSpec::Bool("skip-twitter"), FlagSpec::String("datasets")});
  BenchConfig config;
  ADGRAPH_ASSIGN_OR_RETURN(config.flags,
                           Flags::Parse(argc, argv, extra_flags));
  config.extra_divisor = config.flags.GetDouble("extra-divisor", 1.0);
  config.out_dir = config.flags.GetString("out-dir", "bench_results");
  config.skip_twitter = config.flags.GetBool("skip-twitter", false);
  std::stringstream ss(config.flags.GetString("datasets", ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) config.datasets.push_back(item);
  }
  return config;
}

std::vector<graph::DatasetSpec> BenchConfig::SelectedDatasets() const {
  std::vector<graph::DatasetSpec> out;
  for (const auto& spec : graph::PaperDatasets()) {
    if (skip_twitter && spec.name == "twitter-mpi") continue;
    if (!datasets.empty()) {
      bool wanted = false;
      for (const auto& name : datasets) wanted |= name == spec.name;
      if (!wanted) continue;
    }
    out.push_back(spec);
  }
  return out;
}

std::string FormatTimeCell(const CellResult& cell) {
  if (cell.oom) return "OOM";
  return FormatFixed(cell.time_ms, cell.time_ms >= 100 ? 0 : 2);
}

std::string FormatMtepsCell(const CellResult& cell) {
  if (cell.oom) return "OOM";
  if (cell.skipped) return "skipped";
  return FormatFixed(cell.mteps, 2);
}

void EnsureOutDir(const BenchConfig& config) {
  ::mkdir(config.out_dir.c_str(), 0755);
}

graph::vid_t MaxDegreeVertex(const graph::CsrGraph& g) {
  graph::vid_t best = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(best)) best = v;
  }
  return best;
}

core::TcOptions BissonFaticaTc() {
  core::TcOptions options;
  options.orient = false;
  options.hash_capacity = 2048;
  return options;
}

Result<DatasetBundle> BuildBundle(const graph::DatasetSpec& spec,
                                  double extra_divisor) {
  ADGRAPH_LOG(Info) << "materializing proxy for " << spec.name << " ...";
  DatasetBundle bundle;
  bundle.spec = spec;
  bundle.divisor = spec.scale_divisor * extra_divisor;
  ADGRAPH_ASSIGN_OR_RETURN(bundle.directed,
                           graph::Materialize(spec, extra_divisor));

  // TC runs the nvGRAPH-faithful unoriented (Bisson-Fatica) kernel on the
  // same symmetrized graph BFS traverses.
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  ADGRAPH_ASSIGN_OR_RETURN(
      bundle.symmetric,
      graph::CsrGraph::FromCoo(bundle.directed.ToCoo(), sym));
  bundle.bfs_source = MaxDegreeVertex(bundle.symmetric);

  graph::CooGraph weighted_coo = bundle.directed.ToCoo();
  graph::AttachRandomWeights(&weighted_coo, 0.0, 1.0,
                             /*seed=*/spec.recipe.seed + 1000);
  ADGRAPH_ASSIGN_OR_RETURN(bundle.weighted,
                           graph::CsrGraph::FromCoo(weighted_coo));
  bundle.esbv_vertices = core::SelectPseudoCluster(
      bundle.weighted.num_vertices(), 0.6, /*seed=*/42);
  return bundle;
}

std::unique_ptr<vgpu::Device> MakeDevice(const vgpu::ArchConfig& gpu,
                                         const DatasetBundle& bundle) {
  vgpu::Device::Options options;
  options.memory_scale = bundle.divisor;
  return std::make_unique<vgpu::Device>(gpu, options);
}

Result<CellResult> RunCell(const vgpu::ArchConfig& gpu,
                           const DatasetBundle& bundle, Algo algo) {
  ADGRAPH_LOG(Info) << "running " << AlgoName(algo) << " / "
                    << bundle.spec.name << " on " << gpu.name;
  auto device = MakeDevice(gpu, bundle);
  prof::Session session(device.get());
  auto computed = Compute(device.get(), bundle, algo);
  if (!computed.ok()) {
    if (!computed.status().IsOutOfMemory()) return computed.status();
    CellResult cell;
    cell.oom = true;
    return cell;
  }
  CellResult cell = *computed;
  const double proxy_edges = static_cast<double>(bundle.directed.num_edges());
  if (cell.time_ms <= 0 || proxy_edges <= 0) {
    // A zero-edge proxy or a sub-resolution runtime has no meaningful
    // traversal rate; 0.0 + the skipped marker instead of inf/NaN or a
    // fake rate.
    cell.skipped = true;
  } else {
    cell.mteps = proxy_edges / (cell.time_ms * 1e3);
  }
  const prof::JobProfile profile = session.Finish();
  auto platform = rt::PlatformOf(*device);
  cell.fine = prof::ComputeFineGrained(profile, platform);
  cell.coarse = prof::ComputeCoarse(profile, platform, gpu,
                                    vgpu::DefaultTimingParams());
  return cell;
}

}  // namespace adgraph::bench
