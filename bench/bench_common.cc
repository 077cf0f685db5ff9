#include "bench/bench_common.h"

#include <sys/stat.h>

#include <fstream>
#include <sstream>

#include "core/api.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/generate.h"
#include "prof/session.h"
#include "runtime/runtime.h"
#include "util/logging.h"
#include "util/table.h"

namespace adgraph::bench {

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

std::string AlgoLongName(Algo algo) {
  switch (algo) {
    case Algo::kBfs:
      return "Breadth First Search";
    case Algo::kTc:
      return "Triangle Counting";
    case Algo::kEsbv:
      return "Extracting Subgraph by vertex";
  }
  return "?";
}

BenchConfig BenchConfig::FromArgs(int argc, const char* const* argv) {
  BenchConfig config;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    ADGRAPH_LOG(Warning) << "flag parse error: "
                         << flags.status().ToString();
    return config;
  }
  config.extra_divisor = flags->GetDouble("extra-divisor", 1.0);
  config.out_dir = flags->GetString("out-dir", "bench_results");
  config.skip_twitter = flags->GetBool("skip-twitter", false);
  std::string list = flags->GetString("datasets", "");
  std::stringstream ss(list);
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

uint32_t TcSampleFor(const graph::DatasetSpec& spec) {
  // Sampled simulation keeps the billion-wedge proxies affordable in a
  // functional simulator; counters, timing and counts extrapolate by the
  // factor (EXPERIMENTS.md "Sampled simulation").
  if (spec.name == "twitter-mpi") return 32;
  if (spec.name == "soc-sinaweibo" || spec.name == "web-uk-2002-all") {
    return 2;
  }
  return 1;
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

// --------------------------------------------------------------- runner

CellRunner::CellRunner(BenchConfig config) : config_(std::move(config)) {
  EnsureOutDir(config_);
  LoadCache();
}

std::string CellRunner::CellKey(const std::string& gpu, const std::string& ds,
                                Algo algo, double extra) {
  return gpu + "|" + ds + "|" + AlgoName(algo) + "|" + FormatFixed(extra, 4);
}

Result<const DatasetBundle*> CellRunner::Bundle(
    const graph::DatasetSpec& spec) {
  auto it = bundles_.find(spec.name);
  if (it != bundles_.end()) return &it->second;

  ADGRAPH_LOG(Info) << "materializing proxy for " << spec.name << " ...";
  DatasetBundle bundle;
  bundle.spec = spec;
  ADGRAPH_ASSIGN_OR_RETURN(bundle.directed,
                           graph::Materialize(spec, config_.extra_divisor));

  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  ADGRAPH_ASSIGN_OR_RETURN(
      bundle.symmetric,
      graph::CsrGraph::FromCoo(bundle.directed.ToCoo(), sym));
  for (graph::vid_t v = 0; v < bundle.symmetric.num_vertices(); ++v) {
    if (bundle.symmetric.degree(v) >
        bundle.symmetric.degree(bundle.bfs_source)) {
      bundle.bfs_source = v;
    }
  }

  // TC runs the nvGRAPH-faithful unoriented (Bisson-Fatica) kernel on the
  // symmetrized graph; the symmetric BFS input is exactly that graph.
  bundle.oriented = bundle.symmetric;

  graph::CooGraph weighted_coo = bundle.directed.ToCoo();
  graph::AttachRandomWeights(&weighted_coo, 0.0, 1.0,
                             /*seed=*/spec.recipe.seed + 1000);
  ADGRAPH_ASSIGN_OR_RETURN(bundle.weighted,
                           graph::CsrGraph::FromCoo(weighted_coo));
  bundle.esbv_vertices = core::SelectPseudoCluster(
      bundle.weighted.num_vertices(), 0.6, /*seed=*/42);

  auto [pos, inserted] = bundles_.emplace(spec.name, std::move(bundle));
  ADGRAPH_CHECK(inserted);
  return &pos->second;
}

std::unique_ptr<vgpu::Device> CellRunner::MakeDevice(
    const vgpu::ArchConfig& gpu, const graph::DatasetSpec& spec) {
  vgpu::Device::Options options;
  // Uniform world scaling: GPU RAM shrinks by the same factor as the
  // dataset, preserving the paper's capacity phenomena (ESBV OOM).
  options.memory_scale = spec.scale_divisor * config_.extra_divisor;
  return std::make_unique<vgpu::Device>(gpu, options);
}

Result<CellResult> CellRunner::Compute(vgpu::Device* device,
                                       const DatasetBundle& bundle,
                                       Algo algo) {
  CellResult cell;
  const double proxy_edges =
      static_cast<double>(bundle.directed.num_edges());
  switch (algo) {
    case Algo::kBfs: {
      core::BfsOptions options;
      options.source = bundle.bfs_source;
      options.assume_symmetric = true;
      auto result =
          core::Run<core::Algo::kBfs>(device, bundle.symmetric, options);
      if (!result.ok()) {
        if (result.status().IsOutOfMemory()) {
          cell.oom = true;
          return cell;
        }
        return result.status();
      }
      cell.time_ms = result->time_ms;
      break;
    }
    case Algo::kTc: {
      core::TcOptions options;
      options.orient = false;  // nvGRAPH-style full-adjacency counting
      // 2048-entry shared set: at the proxies' scale, the fallback
      // boundary splits the datasets exactly as the paper-scale degrees
      // split nvGRAPH's shared-memory capacity.
      options.hash_capacity = 2048;
      options.vertex_sample = TcSampleFor(bundle.spec);
      auto uploaded = core::DeviceCsr::Upload(device, bundle.oriented);
      if (!uploaded.ok()) {
        if (uploaded.status().IsOutOfMemory()) {
          cell.oom = true;
          return cell;
        }
        return uploaded.status();
      }
      auto result =
          core::RunTriangleCountOnDevice(device, *uploaded, options);
      if (!result.ok()) {
        if (result.status().IsOutOfMemory()) {
          cell.oom = true;
          return cell;
        }
        return result.status();
      }
      cell.time_ms = result->time_ms;
      cell.sampled = result->sampled;
      break;
    }
    case Algo::kEsbv: {
      core::EsbvOptions options;
      options.vertices = bundle.esbv_vertices;
      auto result =
          core::ExtractSubgraphByVertex(device, bundle.weighted, options);
      if (!result.ok()) {
        if (result.status().IsOutOfMemory()) {
          cell.oom = true;
          return cell;
        }
        return result.status();
      }
      cell.time_ms = result->time_ms;
      break;
    }
  }
  if (cell.time_ms <= 0 || proxy_edges <= 0) {
    // A zero-edge proxy or a sub-resolution runtime has no meaningful
    // traversal rate; 0.0 + the skipped marker instead of inf/NaN or a
    // fake rate.
    cell.mteps = 0.0;
    cell.skipped = true;
  } else {
    cell.mteps = proxy_edges / (cell.time_ms * 1e3);
  }
  return cell;
}

Result<CellResult> CellRunner::Run(const vgpu::ArchConfig& gpu,
                                   const graph::DatasetSpec& spec,
                                   Algo algo) {
  std::string key = CellKey(gpu.name, spec.name, algo, config_.extra_divisor);
  auto it = cell_cache_.find(key);
  if (it != cell_cache_.end()) return it->second;

  ADGRAPH_ASSIGN_OR_RETURN(const DatasetBundle* bundle, Bundle(spec));
  auto device = MakeDevice(gpu, spec);
  ADGRAPH_LOG(Info) << "running " << AlgoName(algo) << " / " << spec.name
                    << " on " << gpu.name;
  ADGRAPH_ASSIGN_OR_RETURN(CellResult cell, Compute(device.get(), *bundle, algo));
  cell_cache_[key] = cell;
  cache_dirty_ = true;
  SaveCache();
  return cell;
}

Result<ProfileCell> CellRunner::RunProfiled(const vgpu::ArchConfig& gpu,
                                            const graph::DatasetSpec& spec,
                                            Algo algo) {
  std::string key =
      "prof|" + CellKey(gpu.name, spec.name, algo, config_.extra_divisor);
  auto it = profile_cache_.find(key);
  if (it != profile_cache_.end()) return it->second;

  ADGRAPH_ASSIGN_OR_RETURN(const DatasetBundle* bundle, Bundle(spec));
  auto device = MakeDevice(gpu, spec);
  ADGRAPH_LOG(Info) << "profiling " << AlgoName(algo) << " / " << spec.name
                    << " on " << gpu.name;
  prof::Session session(device.get());
  ADGRAPH_ASSIGN_OR_RETURN(CellResult cell, Compute(device.get(), *bundle, algo));
  if (cell.oom) {
    return Status::OutOfMemory("profiled cell hit device OOM");
  }
  prof::AlgoProfile profile = session.Finish();
  ProfileCell out;
  out.time_ms = cell.time_ms;
  auto platform = rt::PlatformOf(*device);
  out.fine = prof::ComputeFineGrained(profile, platform);
  out.coarse = prof::ComputeCoarse(profile, platform, gpu,
                                   vgpu::DefaultTimingParams());
  profile_cache_[key] = out;
  cache_dirty_ = true;
  SaveCache();
  return out;
}

int RunSpeedupFigure(int argc, const char* const* argv,
                     const vgpu::ArchConfig& target,
                     const vgpu::ArchConfig& baseline,
                     const std::string& title, const std::string& csv_name) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  CellRunner runner(config);

  TablePrinter table({"Workload", "BFS", "TC", "ESBV"});
  const std::vector<Algo> algos{Algo::kBfs, Algo::kTc, Algo::kEsbv};
  std::map<Algo, double> sum;
  std::map<Algo, double> minimum;
  std::map<Algo, double> maximum;
  std::map<Algo, int> counted;
  for (const auto& spec : config.SelectedDatasets()) {
    std::vector<std::string> row{spec.name};
    for (Algo algo : algos) {
      auto t = runner.Run(target, spec, algo);
      auto b = runner.Run(baseline, spec, algo);
      if (!t.ok() || !b.ok()) {
        std::cerr << "cell failed for " << spec.name << "\n";
        return 1;
      }
      if (t->oom || b->oom || t->time_ms <= 0) {
        row.push_back("OOM");
        continue;
      }
      double speedup = b->time_ms / t->time_ms;
      row.push_back(FormatFixed(speedup, 2) + "x");
      sum[algo] += speedup;
      counted[algo] += 1;
      if (counted[algo] == 1) {
        minimum[algo] = maximum[algo] = speedup;
      } else {
        minimum[algo] = std::min(minimum[algo], speedup);
        maximum[algo] = std::max(maximum[algo], speedup);
      }
    }
    table.AddRow(std::move(row));
  }
  table.AddSeparator();
  std::vector<std::string> avg{"average"};
  std::vector<std::string> range{"range"};
  for (Algo algo : algos) {
    if (counted[algo] == 0) {
      avg.push_back("-");
      range.push_back("-");
      continue;
    }
    avg.push_back(FormatFixed(sum[algo] / counted[algo], 2) + "x");
    range.push_back(FormatFixed(minimum[algo], 2) + "x-" +
                    FormatFixed(maximum[algo], 2) + "x");
  }
  table.AddRow(std::move(avg));
  table.AddRow(std::move(range));

  std::cout << "=== " << title << " ===\n"
            << "(speedup = runtime(" << baseline.name << ") / runtime("
            << target.name << "); >1 means " << target.name << " wins)\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/" + csv_name + ".csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";
  return 0;
}

// ---------------------------------------------------------------- cache

namespace {
constexpr char kCacheFile[] = "/cell_cache.csv";
}  // namespace

void CellRunner::LoadCache() {
  std::ifstream in(config_.out_dir + kCacheFile);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string kind, key;
    if (!std::getline(ss, kind, ';') || !std::getline(ss, key, ';')) continue;
    if (kind == "cell") {
      CellResult cell;
      int oom = 0, sampled = 0, skipped = 0;
      char sep;
      // Five fields; pre-`skipped` cache lines fail the parse and the cell
      // is recomputed rather than loaded with a guessed flag.
      if (ss >> oom >> sep >> cell.time_ms >> sep >> cell.mteps >> sep >>
          sampled >> sep >> skipped) {
        cell.oom = oom != 0;
        cell.sampled = sampled != 0;
        cell.skipped = skipped != 0;
        cell_cache_[key] = cell;
      }
    } else if (kind == "prof") {
      ProfileCell cell;
      char sep;
      if (ss >> cell.time_ms >> sep >> cell.fine.type1 >> sep >>
          cell.fine.type2 >> sep >> cell.fine.type3 >> sep >>
          cell.fine.type4 >> sep >> cell.coarse.warp_utilization >> sep >>
          cell.coarse.shared_memory >> sep >> cell.coarse.l2_hit >> sep >>
          cell.coarse.global_memory) {
        profile_cache_[key] = cell;
      }
    }
  }
}

void CellRunner::SaveCache() const {
  if (!cache_dirty_) return;
  std::ofstream out(config_.out_dir + kCacheFile);
  if (!out) return;
  out.precision(17);
  for (const auto& [key, cell] : cell_cache_) {
    out << "cell;" << key << ';' << (cell.oom ? 1 : 0) << ',' << cell.time_ms
        << ',' << cell.mteps << ',' << (cell.sampled ? 1 : 0) << ','
        << (cell.skipped ? 1 : 0) << '\n';
  }
  for (const auto& [key, cell] : profile_cache_) {
    out << "prof;" << key << ';' << cell.time_ms << ',' << cell.fine.type1
        << ',' << cell.fine.type2 << ',' << cell.fine.type3 << ','
        << cell.fine.type4 << ',' << cell.coarse.warp_utilization << ','
        << cell.coarse.shared_memory << ',' << cell.coarse.l2_hit << ','
        << cell.coarse.global_memory << '\n';
  }
}

}  // namespace adgraph::bench
