// In-memory span recorder for the traced benchmark run.
//
// A span is one call of the benchmark into a layer's public function:
// name ("netlist.parse"), start, end, the span that caused it, the thread
// it ran on, and a few numeric arguments (counts, repetitions). Spans are
// kept in memory and written once, at exit, as Chrome trace-event JSON
// (perfbench/README.md says how to read one). With tracing off a Span is
// an inert object: no clock read, no lock.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Turns recording on or off for the whole process (off by default).
void set_tracing(bool on);
bool tracing();

/// Id of the innermost open span on the calling thread (0 = none).
long current_span();

using SpanArgs = std::vector<std::pair<const char*, double>>;

/// RAII span. `parent` < 0 means "the calling thread's innermost open
/// span"; pass an explicit id to parent a span opened on a worker thread
/// to a span of the thread that fanned the work out.
class Span {
 public:
  explicit Span(const char* name, long parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  long id() const noexcept { return id_; }
  /// Attaches a numeric argument (kept only while tracing).
  void arg(const char* key, double value);

 private:
  const char* name_;
  long id_ = 0;
  long parent_ = 0;
  long saved_current_ = 0;
  std::int64_t start_ns_ = 0;
  SpanArgs args_;
};

/// The recorder's clock: nanoseconds since process start.
std::int64_t trace_clock_ns();

/// Records a span that has already ended, [start_ns, end_ns) on the
/// recorder's clock, as a child of the calling thread's innermost open
/// span. For calls the benchmark can observe but not wrap: an analysis
/// whose end is signalled by a callback. Does nothing with tracing off.
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns, SpanArgs args);

/// Writes every recorded span as Chrome trace-event JSON ("X" events, one
/// per span, microsecond timestamps) with `other_data` (a JSON object
/// literal) as the file's provenance block. False when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, const std::string& other_data);

}  // namespace perfbench
