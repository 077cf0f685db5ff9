#include "serve/flight_recorder.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace adgraph::serve {

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {
  options_.per_class_capacity = std::max<size_t>(options_.per_class_capacity, 1);
}

void FlightRecorder::NoteAlert(bool firing) {
  if (firing) {
    alerts_active_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Guard against a resolve without a matching fire (the sampler replays
    // no history, but a rule may resolve after a recorder restart).
    uint64_t current = alerts_active_.load(std::memory_order_relaxed);
    while (current > 0 && !alerts_active_.compare_exchange_weak(
                              current, current - 1, std::memory_order_relaxed)) {
    }
  }
}

void FlightRecorder::InsertLocked(std::vector<RecordPtr>* ring,
                                  const RecordPtr& record) {
  ring->push_back(record);
  if (ring->size() <= options_.per_class_capacity) return;
  // Evict the least-bad record: the flight recorder's contract is "the K
  // *worst* survive", so the smallest wall time goes, never the largest.
  auto least = std::min_element(ring->begin(), ring->end(),
                                [](const RecordPtr& a, const RecordPtr& b) {
                                  return a->wall_ms() < b->wall_ms();
                                });
  ring->erase(least);
}

void FlightRecorder::Record(JobRecord record) {
  if (!options_.enabled) return;
  record.triggers.clear();
  if (record.wall_ms() >= options_.latency_threshold_ms) {
    record.triggers.push_back("latency");
  }
  if (!record.status.ok()) record.triggers.push_back("status");
  if (alerts_active_.load(std::memory_order_relaxed) > 0) {
    record.triggers.push_back("alert");
  }
  if (record.triggers.empty()) return;
  auto shared = std::make_shared<const JobRecord>(std::move(record));
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& trigger : shared->triggers) {
    if (trigger == "latency") InsertLocked(&by_latency_, shared);
    if (trigger == "status") InsertLocked(&by_status_, shared);
    if (trigger == "alert") InsertLocked(&by_alert_, shared);
  }
}

std::vector<FlightRecorder::RecordPtr> FlightRecorder::Records() const {
  std::vector<RecordPtr> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_set<const JobRecord*> seen;
    for (const std::vector<RecordPtr>* ring :
         {&by_latency_, &by_status_, &by_alert_}) {
      for (const RecordPtr& record : *ring) {
        if (seen.insert(record.get()).second) all.push_back(record);
      }
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const RecordPtr& a, const RecordPtr& b) {
                     return a->wall_ms() > b->wall_ms();
                   });
  return all;
}

std::shared_ptr<const FlightRecorder::JobRecord> FlightRecorder::FindByWireId(
    uint64_t wire_job_id) const {
  if (wire_job_id == 0) return nullptr;
  for (const RecordPtr& record : Records()) {
    if (record->wire_job_id == wire_job_id) return record;
  }
  return nullptr;
}

std::shared_ptr<const FlightRecorder::JobRecord> FlightRecorder::FindBySchedId(
    uint64_t sched_job_id) const {
  if (sched_job_id == 0) return nullptr;
  for (const RecordPtr& record : Records()) {
    if (record->sched_job_id == sched_job_id) return record;
  }
  return nullptr;
}

std::shared_ptr<const FlightRecorder::JobRecord> FlightRecorder::FindByTraceId(
    uint64_t trace_id) const {
  if (trace_id == 0) return nullptr;
  for (const RecordPtr& record : Records()) {
    if (record->trace_id == trace_id) return record;
  }
  return nullptr;
}

}  // namespace adgraph::serve
