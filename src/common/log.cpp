#include "common/log.hpp"

#include <atomic>
#include <cstdio>

namespace usys {
namespace {

std::atomic<LogLevel> g_level{LogLevel::warn};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }

void log_message(LogLevel level, const std::string& msg) {
  if (level < g_level.load()) return;
  std::fprintf(stderr, "[usys %s] %s\n", level_tag(level), msg.c_str());
}

void log_debug(const std::string& msg) { log_message(LogLevel::debug, msg); }
void log_warn(const std::string& msg) { log_message(LogLevel::warn, msg); }

}  // namespace usys
