#include "net/tenant.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "net/wire.h"

namespace adgraph::net {

Result<uint64_t> ParseByteSize(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty byte size");
  uint64_t multiplier = 1;
  size_t digits = text.size();
  switch (std::toupper(static_cast<unsigned char>(text.back()))) {
    case 'K': multiplier = 1ull << 10; --digits; break;
    case 'M': multiplier = 1ull << 20; --digits; break;
    case 'G': multiplier = 1ull << 30; --digits; break;
    case 'T': multiplier = 1ull << 40; --digits; break;
    default: break;
  }
  if (digits == 0) {
    return Status::InvalidArgument("byte size '" + std::string(text) +
                                   "' has no digits");
  }
  uint64_t value = 0;
  for (size_t i = 0; i < digits; ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("malformed byte size '" +
                                     std::string(text) + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value * multiplier;
}

std::string_view QuotaRejectName(QuotaReject reject) {
  switch (reject) {
    case QuotaReject::kNone: return "none";
    case QuotaReject::kUnknownTenant: return "unknown_tenant";
    case QuotaReject::kRate: return "rate";
    case QuotaReject::kConcurrent: return "concurrent";
    case QuotaReject::kBytes: return "bytes";
  }
  return "none";
}

Result<std::vector<TenantConfig>> ParseTenantConfigs(const std::string& text) {
  std::vector<TenantConfig> configs;
  std::istringstream lines(text);
  std::string raw;
  for (int number = 1; std::getline(lines, raw); ++number) {
    auto first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos || raw[first] == '#') continue;
    std::istringstream in(raw);
    TenantConfig config;
    in >> config.name;
    for (const TenantConfig& existing : configs) {
      if (existing.name == config.name) {
        return Status::InvalidArgument("tenants line " +
                                       std::to_string(number) +
                                       ": duplicate tenant '" + config.name +
                                       "'");
      }
    }
    std::string token;
    while (in >> token) {
      auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument(
            "tenants line " + std::to_string(number) +
            ": expected key=value, got '" + token + "'");
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      auto fail = [&](const Status& status) {
        return Status::InvalidArgument("tenants line " +
                                       std::to_string(number) + ": " +
                                       status.message());
      };
      auto parse = [&]() -> Result<double> {
        auto parsed = ParseNumericValue(key, value);
        if (!parsed.ok()) return fail(parsed.status());
        return parsed;
      };
      if (key == "rate" || key == "burst" || key == "weight" ||
          key == "deadline_ms") {
        // A NaN rate or burst would switch the token bucket off (no
        // comparison with NaN holds), and the scheduler rejects every job
        // of a tenant whose weight or deadline is out of range.
        ADGRAPH_ASSIGN_OR_RETURN(double v, parse());
        const bool weight = key == "weight";
        if (!std::isfinite(v) || (weight ? v <= 0 : v < 0)) {
          return fail(Status::InvalidArgument(
              "'" + key + "' wants a finite number " +
              (weight ? "> 0" : ">= 0") + ", got '" + value + "'"));
        }
        double* field = key == "rate"    ? &config.rate_per_sec
                        : key == "burst" ? &config.burst
                        : weight         ? &config.weight
                                         : &config.default_deadline_ms;
        *field = v;
      } else if (key == "concurrent" || key == "priority") {
        ADGRAPH_ASSIGN_OR_RETURN(double v, parse());
        auto checked =
            CheckedInteger(key, v, std::numeric_limits<uint32_t>::max());
        if (!checked.ok()) return fail(checked.status());
        (key == "concurrent" ? config.max_concurrent : config.priority) =
            static_cast<uint32_t>(*checked);
      } else if (key == "bytes") {
        ADGRAPH_ASSIGN_OR_RETURN(config.max_inflight_bytes,
                                 ParseByteSize(value));
      } else {
        return Status::InvalidArgument("tenants line " +
                                       std::to_string(number) +
                                       ": unknown key '" + key + "'");
      }
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

TenantTable::TenantTable(std::vector<TenantConfig> configs)
    : epoch_(std::chrono::steady_clock::now()) {
  for (TenantConfig& config : configs) {
    State state;
    if (config.rate_per_sec > 0 && config.burst <= 0) {
      config.burst = std::max(config.rate_per_sec, 1.0);
    }
    state.tokens = config.burst;  // buckets start full
    state.config = config;
    tenants_.emplace(config.name, std::move(state));
  }
}

double TenantTable::NowSec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

const TenantConfig* TenantTable::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : &it->second.config;
}

Status TenantTable::Admit(const std::string& name, uint64_t estimated_bytes,
                          QuotaReject* reason) {
  return AdmitAt(name, estimated_bytes, NowSec(), reason);
}

Status TenantTable::AdmitAt(const std::string& name, uint64_t estimated_bytes,
                            double now_sec, QuotaReject* reason) {
  if (reason != nullptr) *reason = QuotaReject::kNone;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    if (reason != nullptr) *reason = QuotaReject::kUnknownTenant;
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  State& state = it->second;
  const TenantConfig& config = state.config;

  // Lazy token refill; time moving backwards (an injected test clock)
  // refills nothing rather than going negative.
  if (config.rate_per_sec > 0) {
    if (state.refilled_once && now_sec > state.last_refill_sec) {
      state.tokens =
          std::min(config.burst, state.tokens + (now_sec -
                                                 state.last_refill_sec) *
                                                    config.rate_per_sec);
    }
    state.last_refill_sec = now_sec;
    state.refilled_once = true;
    if (state.tokens < 1.0) {
      state.rejected_rate += 1;
      if (reason != nullptr) *reason = QuotaReject::kRate;
      return Status::ResourceExhausted(
          "tenant '" + name + "': rate quota exceeded (" +
          std::to_string(config.rate_per_sec) + "/s)");
    }
  }
  if (config.max_concurrent > 0 &&
      state.inflight_jobs >= config.max_concurrent) {
    state.rejected_concurrent += 1;
    if (reason != nullptr) *reason = QuotaReject::kConcurrent;
    return Status::ResourceExhausted(
        "tenant '" + name + "': concurrent-job cap (" +
        std::to_string(config.max_concurrent) + ") reached");
  }
  if (config.max_inflight_bytes > 0 &&
      state.inflight_bytes + estimated_bytes > config.max_inflight_bytes) {
    state.rejected_bytes += 1;
    if (reason != nullptr) *reason = QuotaReject::kBytes;
    return Status::ResourceExhausted(
        "tenant '" + name + "': in-flight byte cap (" +
        std::to_string(config.max_inflight_bytes) + " bytes) reached");
  }
  // All three budgets pass — charge them atomically (we hold the mutex).
  if (config.rate_per_sec > 0) state.tokens -= 1.0;
  state.inflight_jobs += 1;
  state.inflight_bytes += estimated_bytes;
  state.admitted += 1;
  return Status::OK();
}

void TenantTable::Release(const std::string& name, uint64_t estimated_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) return;
  State& state = it->second;
  state.inflight_jobs = state.inflight_jobs > 0 ? state.inflight_jobs - 1 : 0;
  state.inflight_bytes =
      state.inflight_bytes > estimated_bytes
          ? state.inflight_bytes - estimated_bytes
          : 0;
}

TenantTable::Usage TenantTable::GetUsage(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Usage usage;
  auto it = tenants_.find(name);
  if (it == tenants_.end()) return usage;
  const State& state = it->second;
  usage.admitted = state.admitted;
  usage.rejected_rate = state.rejected_rate;
  usage.rejected_concurrent = state.rejected_concurrent;
  usage.rejected_bytes = state.rejected_bytes;
  usage.inflight_jobs = state.inflight_jobs;
  usage.inflight_bytes = state.inflight_bytes;
  usage.tokens = state.tokens;
  return usage;
}

std::vector<TenantConfig> TenantTable::Configs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantConfig> configs;
  configs.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) configs.push_back(state.config);
  return configs;
}

}  // namespace adgraph::net
