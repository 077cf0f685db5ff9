#ifndef ADGRAPH_BENCH_BENCH_COMMON_H_
#define ADGRAPH_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/triangle_count.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "prof/metrics.h"
#include "util/flags.h"
#include "util/status.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {

/// The three paper benchmark algorithms (Table 5 row groups).
enum class Algo { kBfs, kTc, kEsbv };

std::string AlgoName(Algo algo);  // "BFS" / "TC" / "ESBV"

/// Command-line configuration shared by adgraph_repro and the smoke benches.
struct BenchConfig {
  /// Extra uniform shrink on top of each dataset's scale_divisor (quick
  /// runs: --extra-divisor=8).  Device RAM shrinks by the same factor.
  double extra_divisor = 1.0;
  /// Directory for result CSVs.
  std::string out_dir = "bench_results";
  /// Restrict to a subset of datasets (--datasets=web-Google,twitter-mpi).
  std::vector<std::string> datasets;
  /// Drop the twitter-mpi row entirely (--skip-twitter) for quick runs.
  bool skip_twitter = false;
  /// Every flag given, the binary's own included.
  Flags flags;

  /// Parses the shared flags above plus the binary's own `extra_flags`
  /// (which it reads from `flags`).  Any other flag, a positional
  /// argument, an --extra-divisor that is not a number >= 1 or a value an
  /// extra flag's kind refuses is kInvalidArgument: a typo must not fall
  /// back to a full-scale run.
  static Result<BenchConfig> FromArgs(int argc, const char* const* argv,
                                      std::vector<FlagSpec> extra_flags = {});

  /// The Table 4 dataset list after filters.
  std::vector<graph::DatasetSpec> SelectedDatasets() const;
};

/// One cell: one algorithm on one dataset on one GPU.  Table 5 reads the
/// runtime; Table 6 and Figures 7-8 read the profile of the same run.
struct CellResult {
  bool oom = false;
  double time_ms = 0;
  double mteps = 0;        ///< proxy edge count / runtime (paper convention)
  bool sampled = false;    ///< TC twitter-mpi sampled-simulation flag
  /// Rate is undefined (zero-edge proxy or zero measured time — e.g. an
  /// empty BFS frontier); mteps is 0.0 and the table cell prints "skipped"
  /// instead of a fake 0.00 rate.
  bool skipped = false;
  /// Fine-grained counts and coarse metrics of the cell's kernel launches
  /// under the GPU's native tool view (zero when oom).
  prof::FineGrainedCounts fine;
  prof::CoarseMetrics coarse;
};

/// All host-side preprocessed forms of one dataset (built once, reused by
/// every GPU; preprocessing is not part of the measured runtimes).
struct DatasetBundle {
  graph::DatasetSpec spec;
  /// Total shrink: spec.scale_divisor x the extra divisor.  Device RAM
  /// shrinks by the same factor (MakeDevice).
  double divisor = 1;
  graph::CsrGraph directed;   ///< deduplicated directed proxy
  graph::CsrGraph symmetric;  ///< BFS and TC input (undirected, simple)
  graph::CsrGraph weighted;   ///< ESBV input (FP64 random weights)
  std::vector<graph::vid_t> esbv_vertices;  ///< pseudo-cluster (60%)
  graph::vid_t bfs_source = 0;              ///< max-degree vertex
};

/// Materializes `spec` at `extra_divisor` and builds every form above.
Result<DatasetBundle> BuildBundle(const graph::DatasetSpec& spec,
                                  double extra_divisor);

/// A fresh device for `bundle`'s dataset: uniform world scaling, so GPU RAM
/// shrinks by the same factor as the dataset, preserving the paper's
/// capacity phenomena (ESBV OOM).
std::unique_ptr<vgpu::Device> MakeDevice(const vgpu::ArchConfig& gpu,
                                         const DatasetBundle& bundle);

/// Runs one cell on a fresh device inside one prof::Session.  Device OOM is
/// a result (cell.oom), not an error.
Result<CellResult> RunCell(const vgpu::ArchConfig& gpu,
                           const DatasetBundle& bundle, Algo algo);

/// First vertex of maximum degree.
graph::vid_t MaxDegreeVertex(const graph::CsrGraph& g);

/// TC as the paper's nvGRAPH runs it: unoriented (Bisson-Fatica)
/// full-adjacency counting with a 2048-entry shared set.  At the proxies'
/// scale that fallback boundary splits the datasets exactly as the
/// paper-scale degrees split nvGRAPH's shared-memory capacity.
core::TcOptions BissonFaticaTc();

/// Formats a CellResult for a Table 5-style cell ("OOM" or fixed-point).
std::string FormatTimeCell(const CellResult& cell);
std::string FormatMtepsCell(const CellResult& cell);

/// Ensures config.out_dir exists; best-effort.
void EnsureOutDir(const BenchConfig& config);

}  // namespace adgraph::bench

#endif  // ADGRAPH_BENCH_BENCH_COMMON_H_
