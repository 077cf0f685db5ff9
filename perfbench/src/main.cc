// adgraph_perfbench — the repository benchmark.
//
//   adgraph_perfbench --workload paper_cells|serve_mix|mutate_mix|placements
//                     --seed N --seconds S --trace 0|1 [--trace-out PATH]
//                     [--commit ID]
//
// Prints a run record, one line per metric (name, value, unit, samples) and,
// as the last line, the JSON result
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  perfbench/run.py builds this binary and forwards the flags.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

namespace adgraph::perfbench {
namespace {

constexpr const char* kUsage =
    "usage: adgraph_perfbench --workload NAME --seed N --seconds S "
    "--trace 0|1 [--trace-out PATH] [--commit ID]\n"
    "workloads: paper_cells serve_mix mutate_mix placements\n";

/// Timing numbers from a sanitizer or unoptimized build mean nothing; the
/// benchmark refuses to produce them.
const char* UnfitBuildReason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#else
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer flags";
  if (flags.find("-O0") != std::string::npos ||
      flags.find("-O1") != std::string::npos) {
    return "-O0/-O1 build";
  }
  return nullptr;
#endif
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* commit) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config->seconds > 0) ||
          config->seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (key == "--trace-out") {
      config->trace_out = value;
    } else if (key == "--commit") {
      *commit = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace
}  // namespace adgraph::perfbench

int main(int argc, char** argv) {
  using namespace adgraph::perfbench;
  RunConfig config;
  std::string commit = "unknown";
  if (!ParseArgs(argc, argv, &config, &commit)) {
    std::cerr << kUsage;
    return 2;
  }
  if (const char* reason = UnfitBuildReason()) {
    std::cerr << "perfbench: refusing to measure a " << reason << " ("
              << PERFBENCH_CXX_FLAGS << ")\n";
    return 3;
  }

  Outcome (*run)(const RunConfig&) = nullptr;
  if (config.workload == "paper_cells") run = RunPaperCells;
  if (config.workload == "serve_mix") run = RunServeMix;
  if (config.workload == "mutate_mix") run = RunMutateMix;
  if (config.workload == "placements") run = RunPlacements;
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload '" << config.workload << "'\n"
              << kUsage;
    return 2;
  }

  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, after which big buffers stay in per-thread arenas and peak RSS
  // depends on which threads happened to allocate them.  With it, peak_rss_mb
  // follows the program's live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Outcome out = run(config);
  if (config.trace) {
    std::string self = "self ms by layer (traced operations):";
    for (const auto& [layer, ms] : Tracer::Get().LayerSelfMs()) {
      self += " " + layer + " " + std::to_string(ms);
    }
    out.notes.push_back(self);
    if (!config.trace_out.empty() &&
        !Tracer::Get().WriteChromeTrace(config.trace_out)) {
      std::cerr << "perfbench: could not write " << config.trace_out << "\n";
    }
  }

  // Every catalogued metric of the selected set is reported; an end-to-end
  // metric that reads 0 means the workload did not measure it, which is a
  // benchmark failure, not a number.
  std::map<std::string, Metric> selected;
  if (config.trace) {
    for (const auto& [name, unit] : PerLayerCatalog()) {
      auto it = out.per_layer.find(name);
      selected[name] = it != out.per_layer.end() ? it->second
                                                 : Metric{0, unit, 0};
    }
  } else {
    for (const auto& [name, unit] : EndToEndCatalog()) {
      auto it = out.end_to_end.find(name);
      if (it == out.end_to_end.end() || !(it->second.value > 0)) {
        out.Fail("end-to-end metric " + name + " was not measured");
        selected[name] = Metric{0, unit, 0};
      } else {
        selected[name] = it->second;
      }
    }
  }
  if (out.attempted == 0) out.attempted = 1;

  std::cout << "run_record {\"workload\":" << JsonString(config.workload)
            << ",\"seed\":" << config.seed
            << ",\"seconds\":" << JsonNumber(config.seconds)
            << ",\"trace\":" << (config.trace ? 1 : 0)
            << ",\"commit\":" << JsonString(commit)
            << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << JsonString(PERFBENCH_CXX_FLAGS)
            << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
            << ",\"nproc\":" << std::thread::hardware_concurrency() << "}\n";
  for (const std::string& note : out.notes) {
    std::cout << "note " << note << "\n";
  }
  for (const auto& [name, metric] : selected) {
    std::printf("metric %-30s %16.6f %-8s samples=%llu\n", name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  for (const std::string& failure : out.failures) {
    std::cerr << "FAILED: " << failure << "\n";
  }
  std::cout << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : selected) {
    std::cout << (first ? "" : ",") << JsonString(name)
              << ":{\"value\":" << JsonNumber(metric.value)
              << ",\"unit\":" << JsonString(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
