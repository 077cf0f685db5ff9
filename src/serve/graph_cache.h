#ifndef ADGRAPH_SERVE_GRAPH_CACHE_H_
#define ADGRAPH_SERVE_GRAPH_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "core/residency.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::serve {

/// \brief Per-device graph residency cache (DESIGN.md §2.6): a
/// content-keyed map from (graph fingerprint, mutation epoch, variant) to
/// an uploaded DeviceCsr, so repeated jobs over the same graph skip the
/// host-side variant build *and* the modeled PCIe upload.
///
/// The epoch component exists for dynamic graphs (§2.12): snapshots of a
/// mutable graph share one *family* fingerprint across mutations and carry
/// the version in mutation_epoch(), so without the epoch in the key a resident
/// copy of version k would silently satisfy a job holding version k+1.
/// Static graphs are epoch 0 forever and behave exactly as before.
///
/// Ownership and threading mirror the device itself: each serve::Scheduler
/// worker constructs one GraphCache beside its vgpu::Device on the worker
/// thread, and the cache never escapes that thread — no internal locking.
///
/// Entries are ref-count pinned while a job reads them (ResidentCsr RAII)
/// and evicted LRU-first under memory pressure, either when an insertion
/// exceeds the cache budget or when admission control calls EvictForSpace
/// to admit a job that would not otherwise fit.  Pinned entries are never
/// evicted.
///
/// Correctness bar: every cached DeviceCsr equals BuildHostVariant(base,
/// variant) uploaded via DeviceCsr::Upload, and every variant is a
/// deterministic function of the base graph — so job results are
/// byte-identical with the cache on or off.
class GraphCache final : public core::GraphResidency {
 public:
  struct Options {
    /// Off = every Acquire degrades to a one-shot owned upload (the
    /// pre-cache behavior); stats stay zero.
    bool enabled = true;
    /// Cache budget in device bytes.  0 = derive from capacity_fraction.
    uint64_t capacity_bytes = 0;
    /// Budget as a fraction of device RAM, used when capacity_bytes == 0.
    double capacity_fraction = 0.5;
    /// Entry-count cap (0 disables caching outright).
    size_t max_entries = 64;
  };

  struct Stats {
    uint64_t hits = 0;            ///< Acquire served from residency
    uint64_t misses = 0;          ///< Acquire built + uploaded
    uint64_t evictions = 0;       ///< entries evicted
    uint64_t bytes_evicted = 0;   ///< device bytes freed by eviction
    uint64_t resident_bytes = 0;  ///< device bytes currently cached
    uint64_t stale_invalidated = 0;  ///< entries dropped by Invalidate()
  };

  /// `device` must outlive the cache (both are worker-thread locals, the
  /// cache declared after — thus destroyed before — the device).
  GraphCache(vgpu::Device* device, Options options);
  ~GraphCache() override;

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// core::GraphResidency: returns `variant` of `base` resident on the
  /// worker's device, pinned until the handle drops.  Hit = pin the cached
  /// entry (no host work, no transfer); miss = build + upload, then insert
  /// (evicting LRU unpinned entries to fit the budget) unless the upload
  /// exceeds the whole budget or everything else is pinned, in which case
  /// the upload is handed back as a one-shot owned copy.
  Result<core::ResidentCsr> Acquire(vgpu::Device* device,
                                    const graph::CsrGraph& base,
                                    core::GraphVariant variant) override;

  /// Pins (base, variant) if it is already resident; empty handle
  /// otherwise.  Counts neither a hit nor a miss — the scheduler uses this
  /// *before* admission control so eviction-for-space can never evict the
  /// graph the about-to-run job needs.
  core::ResidentCsr PinIfResident(const graph::CsrGraph& base,
                                  core::GraphVariant variant);

  /// Device bytes already resident for (base, variant); 0 when absent.
  /// Admission control subtracts this from the job's working-set charge.
  uint64_t ResidentBytesFor(const graph::CsrGraph& base,
                            core::GraphVariant variant) const;

  /// Evicts unpinned entries, least recently used first, until at least
  /// `bytes` of device memory have been freed or only pinned entries
  /// remain.  Returns the bytes actually freed.
  uint64_t EvictForSpace(uint64_t bytes);

  /// Drops every cached variant of `fingerprint` whose epoch is older than
  /// `keep_min_epoch` (default: all epochs).  With the epoch in the key
  /// stale entries can never be *served*; this frees their device memory
  /// eagerly after a mutation instead of waiting for LRU pressure.  Pinned
  /// entries are doomed — unservable immediately, erased when the last
  /// in-flight reader unpins.  Emits a `cache.stale_invalidate` trace span
  /// and counts into stats().stale_invalidated.  Returns entries dropped
  /// or doomed.
  uint64_t Invalidate(uint64_t fingerprint,
                      uint64_t keep_min_epoch = ~uint64_t{0});

  bool enabled() const { return options_.enabled; }
  /// Effective budget (capacity_bytes, or the fraction of device RAM).
  uint64_t capacity_bytes() const { return capacity_; }
  const Stats& stats() const { return stats_; }
  size_t num_entries() const { return entries_.size(); }

 private:
  /// (fingerprint, mutation epoch, variant) — identity-free, so two
  /// JobSpecs sharing a graph's *content* (same fingerprint and epoch)
  /// share its residency, while successive versions of a mutable graph
  /// never collide.
  using Key = std::tuple<uint64_t, uint64_t, uint8_t>;

  struct Entry {
    std::shared_ptr<const core::DeviceCsr> csr;
    uint64_t bytes = 0;      ///< device bytes of the upload (aligned)
    uint64_t last_used = 0;  ///< LRU clock stamp
    uint32_t pins = 0;       ///< outstanding ResidentCsr handles
    bool doomed = false;     ///< invalidated while pinned; erase on unpin
  };

  static Key KeyFor(const graph::CsrGraph& base, core::GraphVariant variant) {
    return Key{core::FingerprintCsr(base), base.mutation_epoch(),
               static_cast<uint8_t>(variant)};
  }

  core::ResidentCsr PinEntry(const Key& key, Entry& entry);
  void EraseEntry(std::map<Key, Entry>::iterator it);

  vgpu::Device* device_;
  Options options_;
  uint64_t capacity_ = 0;
  Stats stats_;
  uint64_t use_clock_ = 0;
  std::map<Key, Entry> entries_;
};

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_GRAPH_CACHE_H_
