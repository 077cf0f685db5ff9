#include "util/logging.h"

#include <atomic>

namespace adgraph {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip the directory part for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >= g_min_level.load(std::memory_order_relaxed) ||
      level_ == LogLevel::kFatal) {
    // One insertion per message, so that lines logged by several threads
    // at once do not interleave.
    std::cerr << stream_.str() + '\n' << std::flush;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

void LogMessage::SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel LogMessage::min_log_level() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

}  // namespace adgraph
