// Minimal leveled logger. The simulator reports Newton/step diagnostics at
// `debug`, analysis summaries at `info`, and model warnings (e.g. electrode
// collision, pull-in) at `warn`. Quiet by default so bench output stays clean.
#pragma once

#include <string>

namespace usys {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Sets the global threshold (messages below it are dropped).
void set_log_level(LogLevel level) noexcept;

/// Emits to stderr with a level prefix if `level >= threshold`.
void log_message(LogLevel level, const std::string& msg);

void log_debug(const std::string& msg);
void log_warn(const std::string& msg);

}  // namespace usys
