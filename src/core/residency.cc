#include "core/residency.h"

#include <vector>

#include "core/triangle_count.h"

namespace adgraph::core {

std::string_view GraphVariantName(GraphVariant variant) {
  switch (variant) {
    case GraphVariant::kAsIs:
      return "as-is";
    case GraphVariant::kSymSimple:
      return "sym";
    case GraphVariant::kTcOriented:
      return "tc-oriented";
    case GraphVariant::kPullTranspose:
      return "pull-transpose";
    case GraphVariant::kCscWeighted:
      return "csc-weighted";
  }
  return "unknown";
}

uint64_t FingerprintCsr(const graph::CsrGraph& g) {
  // Same FNV-1a digest as always, now memoized on the graph itself — and
  // pre-stamped with the family fingerprint on DeltaGraph snapshots, whose
  // identity is (fingerprint, mutation_epoch) rather than raw content.
  return g.ContentFingerprint();
}

Result<graph::CsrGraph> BuildHostVariant(const graph::CsrGraph& base,
                                         GraphVariant variant) {
  switch (variant) {
    case GraphVariant::kAsIs:
      return base;
    case GraphVariant::kSymSimple:
      return SymmetrizeForTc(base);
    case GraphVariant::kTcOriented:
      return OrientByDegree(base);
    case GraphVariant::kPullTranspose: {
      // Pull formulation operand: edge (v <- u) carries 1/outdeg(u), so a
      // plus-times SpMV against it is one PageRank gather sweep.
      graph::CsrGraph gt = base.Transpose();
      std::vector<graph::weight_t> w(gt.num_edges());
      const auto& cols = gt.col_indices();
      for (graph::eid_t e = 0; e < gt.num_edges(); ++e) {
        w[e] = 1.0 / static_cast<double>(base.degree(cols[e]));
      }
      return graph::CsrGraph::FromArrays(gt.num_vertices(), gt.row_offsets(),
                                         gt.col_indices(), std::move(w));
    }
    case GraphVariant::kCscWeighted:
      return base.Transpose();
  }
  return Status::InvalidArgument("unknown graph variant");
}

Result<ResidentCsr> Stage(GraphResidency* residency, vgpu::Device* device,
                          const graph::CsrGraph& base, GraphVariant variant) {
  if (residency != nullptr) return residency->Acquire(device, base, variant);
  if (variant == GraphVariant::kAsIs) {
    ADGRAPH_ASSIGN_OR_RETURN(DeviceCsr d, DeviceCsr::Upload(device, base));
    return ResidentCsr(std::move(d));
  }
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph host,
                           BuildHostVariant(base, variant));
  ADGRAPH_ASSIGN_OR_RETURN(DeviceCsr d, DeviceCsr::Upload(device, host));
  return ResidentCsr(std::move(d));
}

}  // namespace adgraph::core
