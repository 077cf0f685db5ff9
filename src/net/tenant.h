#ifndef ADGRAPH_NET_TENANT_H_
#define ADGRAPH_NET_TENANT_H_

/// \file
/// Per-tenant admission quotas for the TCP front door (DESIGN.md §2.10).
///
/// Layered *in front of* the scheduler's byte-budget admission control: the
/// TenantTable answers "may this tenant submit right now?" from three
/// independent budgets — a token-bucket request rate, a concurrent-job cap,
/// and a resident-byte cap over the admission estimates of the tenant's
/// in-flight jobs.  The scheduler then still applies its own device-memory
/// admission to whatever gets through; a tenant quota rejection never
/// reaches a device.
///
/// Charging protocol: Admit() charges one job slot + the estimated bytes
/// atomically on success; the caller MUST pair every successful Admit with
/// exactly one Release (when the job's outcome is delivered, or when the
/// owning session dies with the job still in flight — the server's orphan
/// reaper handles that path, so a disconnect never leaks reserved bytes).

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace adgraph::net {

/// One tenant's quota contract, parsed from a tenants file line.
struct TenantConfig {
  std::string name;
  /// Token-bucket SUBMIT rate, tokens (= jobs) per second.  0 = unlimited.
  double rate_per_sec = 0;
  /// Bucket capacity (burst size).  <= 0 defaults to max(rate_per_sec, 1).
  double burst = 0;
  /// Max jobs in flight (admitted, outcome not yet delivered).  0 = no cap.
  uint32_t max_concurrent = 0;
  /// Max summed admission-estimate bytes in flight.  0 = no cap.
  uint64_t max_inflight_bytes = 0;
  /// Priority class stamped on the tenant's jobs (lower runs first).
  uint32_t priority = 0;
  /// Fair-share weight within the priority class (scheduler WFQ).
  double weight = 1.0;
  /// Default job deadline when a SUBMIT names none.  0 = no deadline.
  double default_deadline_ms = 0;
};

/// "512", "64K", "16M", "2G" (binary suffixes) -> bytes.
Result<uint64_t> ParseByteSize(std::string_view text);

/// Parses a tenants file: one tenant per line,
///   `NAME [rate=F] [burst=F] [concurrent=N] [bytes=SIZE] [priority=N]
///         [weight=F] [deadline_ms=F]`
/// with `#` comments and blank lines skipped.  Unknown keys and duplicate
/// tenant names are errors (a typo must not silently become "no quota"),
/// as are non-integer or out-of-range `concurrent`/`priority`
/// (CheckedInteger), and a non-finite or negative number (weight: <= 0).
Result<std::vector<TenantConfig>> ParseTenantConfigs(const std::string& text);

/// Why Admit() said no — the metric label and the wire `reason` field.
enum class QuotaReject { kNone, kUnknownTenant, kRate, kConcurrent, kBytes };
std::string_view QuotaRejectName(QuotaReject reject);

/// \brief Thread-safe quota state for every configured tenant.
///
/// All three budgets are checked-and-charged under one mutex so concurrent
/// handler threads cannot double-spend the last token or byte.  Token
/// refill is lazy (computed from elapsed time at each Admit), so there is
/// no background thread to manage.
class TenantTable {
 public:
  explicit TenantTable(std::vector<TenantConfig> configs);

  /// True when no tenants are configured (the server then runs open-access:
  /// any HELLO name is accepted with default limits).
  bool empty() const { return tenants_.empty(); }

  /// The configured contract of `name`, or nullptr for unknown tenants.
  const TenantConfig* Find(const std::string& name) const;

  /// Checks all quotas and, on success, charges one job slot and
  /// `estimated_bytes` to the tenant.  kNotFound for unknown tenants,
  /// kResourceExhausted (with `reason` set when non-null) for quota hits.
  Status Admit(const std::string& name, uint64_t estimated_bytes,
               QuotaReject* reason = nullptr);
  /// Admit with an injected clock (seconds on an arbitrary monotonic axis)
  /// — the deterministic entry point the token-bucket tests use.
  Status AdmitAt(const std::string& name, uint64_t estimated_bytes,
                 double now_sec, QuotaReject* reason = nullptr);

  /// Returns one job slot + `estimated_bytes` to the tenant.  Must pair 1:1
  /// with successful Admits; over-release clamps to zero (and is a bug in
  /// the caller, surfaced by the usage counters, not by UB).
  void Release(const std::string& name, uint64_t estimated_bytes);

  struct Usage {
    uint64_t admitted = 0;
    uint64_t rejected_rate = 0;
    uint64_t rejected_concurrent = 0;
    uint64_t rejected_bytes = 0;
    uint32_t inflight_jobs = 0;
    uint64_t inflight_bytes = 0;
    double tokens = 0;  ///< current bucket level (rate-limited tenants)
  };
  /// Point-in-time usage of `name` (zeroes for unknown tenants).
  Usage GetUsage(const std::string& name) const;

  std::vector<TenantConfig> Configs() const;

 private:
  struct State {
    TenantConfig config;
    double tokens = 0;
    double last_refill_sec = 0;
    bool refilled_once = false;
    uint32_t inflight_jobs = 0;
    uint64_t inflight_bytes = 0;
    uint64_t admitted = 0;
    uint64_t rejected_rate = 0;
    uint64_t rejected_concurrent = 0;
    uint64_t rejected_bytes = 0;
  };

  double NowSec() const;

  mutable std::mutex mutex_;
  std::map<std::string, State> tenants_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace adgraph::net

#endif  // ADGRAPH_NET_TENANT_H_
