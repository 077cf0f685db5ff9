// Smoke tests of the shared bench harness (bench/bench_common): the MTEPS
// cell computation must never emit inf/nan into CSV rows — a zero-edge
// proxy or a zero measured time produces a 0.0 rate with the `skipped`
// marker, and the table formatter prints "skipped" instead of a fake rate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/datasets.h"
#include "vgpu/arch.h"

namespace adgraph::bench {
namespace {

TEST(BenchConfigTest, ParsesTheSharedFlagsAndDeclaredExtras) {
  const char* argv[] = {"bench", "--extra-divisor=8", "--out-dir=/tmp/q",
                        "--skip-twitter", "--datasets=web-Google,cit-Patents",
                        "--smoke"};
  auto config = BenchConfig::FromArgs(6, argv, {"smoke"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->extra_divisor, 8.0);
  EXPECT_EQ(config->out_dir, "/tmp/q");
  EXPECT_TRUE(config->skip_twitter);
  EXPECT_EQ(config->datasets,
            (std::vector<std::string>{"web-Google", "cit-Patents"}));
}

TEST(BenchConfigTest, UnknownFlagIsAnError) {
  // A misspelled flag used to be ignored, so `--extra-divisr=8` rewrote
  // every paper CSV at full scale.
  const char* misspelled[] = {"bench", "--extra-divisr=8"};
  EXPECT_TRUE(
      BenchConfig::FromArgs(2, misspelled).status().IsInvalidArgument());
  // A binary's own flags are unknown to every other binary.
  const char* smoke[] = {"bench", "--smoke"};
  EXPECT_TRUE(BenchConfig::FromArgs(2, smoke).status().IsInvalidArgument());
  EXPECT_TRUE(BenchConfig::FromArgs(2, smoke, {"smoke"}).ok());
  const char* positional[] = {"bench", "8"};
  EXPECT_TRUE(
      BenchConfig::FromArgs(2, positional).status().IsInvalidArgument());
}

TEST(BenchConfigTest, MalformedExtraDivisorIsAnError) {
  // A malformed value used to fall back to the default of 1: full scale.
  for (const char* arg : {"--extra-divisor=abc", "--extra-divisor=8x",
                          "--extra-divisor=", "--extra-divisor=0.5",
                          "--extra-divisor=-8", "--extra-divisor=nan",
                          "--extra-divisor=inf"}) {
    const char* argv[] = {"bench", arg};
    EXPECT_TRUE(BenchConfig::FromArgs(2, argv).status().IsInvalidArgument())
        << arg;
  }
}

TEST(CellFormatTest, SkippedAndOomMarkersWinOverNumbers) {
  CellResult cell;
  cell.time_ms = 1.5;
  cell.mteps = 123.456;
  EXPECT_EQ(FormatMtepsCell(cell), "123.46");

  cell.skipped = true;
  EXPECT_EQ(FormatMtepsCell(cell), "skipped");

  cell.skipped = false;
  cell.oom = true;
  EXPECT_EQ(FormatMtepsCell(cell), "OOM");
  EXPECT_EQ(FormatTimeCell(cell), "OOM");
}

TEST(CellRunnerTest, ZeroEdgeProxyIsSkippedNotNan) {
  // A spec whose proxy materializes with vertices but (after dedup) zero
  // edges: paper_edges / scale_divisor rounds the edge factor to nothing.
  graph::DatasetSpec spec;
  spec.name = "zero-edge-proxy";
  spec.category = "test";
  spec.paper_vertices = 512;
  spec.paper_edges = 4;
  spec.paper_max_degree = 1;
  spec.scale_divisor = 1000;
  spec.recipe.seed = 7;

  auto bundle = BuildBundle(spec, /*extra_divisor=*/1.0);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  auto cell = RunCell(vgpu::A100Config(), *bundle, Algo::kBfs);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_TRUE(cell->skipped);
  EXPECT_DOUBLE_EQ(cell->mteps, 0.0);
  EXPECT_TRUE(std::isfinite(cell->mteps));
  EXPECT_TRUE(std::isfinite(cell->time_ms));
  EXPECT_EQ(FormatMtepsCell(*cell), "skipped");
}

TEST(CellRunnerTest, NormalProxyIsNotSkipped) {
  graph::DatasetSpec spec = graph::FindDataset("web-Stanford").value();
  // Extra divisor 16 keeps the unit test fast.
  auto bundle = BuildBundle(spec, /*extra_divisor=*/16.0);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  auto cell = RunCell(vgpu::A100Config(), *bundle, Algo::kBfs);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_FALSE(cell->skipped);
  EXPECT_GT(cell->mteps, 0.0);
  EXPECT_TRUE(std::isfinite(cell->mteps));
}

}  // namespace
}  // namespace adgraph::bench
