#ifndef ADGRAPH_TESTS_TRACE_WINDOW_H_
#define ADGRAPH_TESTS_TRACE_WINDOW_H_

#include <gtest/gtest.h>

#include <utility>

#include "trace/trace.h"

namespace adgraph {

/// Opens the process's trace window for one test scope and closes it on
/// every way out of it, so a failed ASSERT cannot leave the window open
/// for the tests after it (a test binary runs as one process).
class TraceWindowGuard {
 public:
  explicit TraceWindowGuard(trace::TraceOptions options = {}) {
    EXPECT_TRUE(trace::Start(std::move(options)).ok());
  }
  ~TraceWindowGuard() { EXPECT_TRUE(trace::Stop().ok()); }
  TraceWindowGuard(const TraceWindowGuard&) = delete;
  TraceWindowGuard& operator=(const TraceWindowGuard&) = delete;
};

}  // namespace adgraph

#endif  // ADGRAPH_TESTS_TRACE_WINDOW_H_
