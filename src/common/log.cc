#include "src/common/log.h"

#include <cstdio>
#include <mutex>

namespace btr {
namespace {

LogLevel g_level = LogLevel::kOff;
// Thread-local: the sweep service runs one simulator per concurrent job,
// each registering its own clock from its own thread.
thread_local const SimTime* g_now = nullptr;
std::mutex g_emit_mu;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }
void SetLogTimeSource(const SimTime* now) { g_now = now; }

bool LogEnabled(LogLevel level) { return static_cast<int>(level) >= static_cast<int>(g_level); }

void LogLine(LogLevel level, const std::string& component, const std::string& message) {
  if (!LogEnabled(level)) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_emit_mu);
  if (g_now != nullptr) {
    std::fprintf(stderr, "[%s %12.6fs %-10s] %s\n", LevelName(level), ToSecondsF(*g_now),
                 component.c_str(), message.c_str());
  } else {
    std::fprintf(stderr, "[%s %-10s] %s\n", LevelName(level), component.c_str(), message.c_str());
  }
}

}  // namespace btr
