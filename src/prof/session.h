#ifndef ADGRAPH_PROF_SESSION_H_
#define ADGRAPH_PROF_SESSION_H_

#include <cstddef>

#include "prof/metrics.h"
#include "vgpu/device.h"

namespace adgraph::prof {

/// \brief Scoped profiling window over a device's kernel log: the
/// simulator's stand-in for attaching ncu / hiprof to an application run.
///
/// \code
///   prof::Session session(&device);
///   RunAlgorithm(&device, ...);
///   JobProfile p = session.Finish();
/// \endcode
class Session {
 public:
  explicit Session(const vgpu::Device* device)
      : device_(device), start_index_(device->kernel_log().size()) {}

  /// Profiles every kernel launched since construction (ProfileWindow).
  /// May be called repeatedly; each call profiles the window so far.
  JobProfile Finish() const {
    return ProfileWindow(device_->kernel_log(), start_index_);
  }

 private:
  const vgpu::Device* device_;
  size_t start_index_;
};

}  // namespace adgraph::prof

#endif  // ADGRAPH_PROF_SESSION_H_
