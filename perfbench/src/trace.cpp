#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/json.hpp"

namespace perfbench {
namespace {

struct Record {
  const char* name;
  long id;
  long parent;
  int tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
  SpanArgs args;
};

std::atomic<bool> g_on{false};
std::atomic<long> g_next_id{1};
std::atomic<int> g_next_tid{1};
const auto g_epoch = std::chrono::steady_clock::now();

std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local long tl_current = 0;
thread_local int tl_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

int thread_tid() {
  if (tl_tid == 0) tl_tid = g_next_tid.fetch_add(1);
  return tl_tid;
}

void append_us(std::string& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

}  // namespace

void set_tracing(bool on) { g_on.store(on); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
long current_span() { return tl_current; }

Span::Span(const char* name, long parent) : name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = parent < 0 ? tl_current : parent;
  saved_current_ = tl_current;
  tl_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  tl_current = saved_current_;
  Record r{name_, id_, parent_, thread_tid(), start_ns_, end, std::move(args_)};
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(std::move(r));
}

void Span::arg(const char* key, double value) {
  if (id_ != 0) args_.emplace_back(key, value);
}

std::int64_t trace_clock_ns() { return now_ns(); }

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns, SpanArgs args) {
  if (!tracing()) return;
  Record r{name, g_next_id.fetch_add(1), tl_current, thread_tid(), start_ns, end_ns,
           std::move(args)};
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(std::move(r));
}

bool write_chrome_trace(const std::string& path, const std::string& other_data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << other_data
      << ",\"traceEvents\":[\n";
  std::string line;
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    const std::string name(r.name);
    line = "{\"name\":";
    usys::json_append_escaped(line, name);
    line += ",\"cat\":";
    usys::json_append_escaped(line, name.substr(0, name.find('.')));
    line += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(r.tid) + ",\"ts\":";
    append_us(line, r.start_ns);
    line += ",\"dur\":";
    append_us(line, r.end_ns - r.start_ns);
    line += ",\"args\":{\"id\":" + std::to_string(r.id) +
            ",\"parent\":" + std::to_string(r.parent);
    for (const auto& [key, value] : r.args) {
      line += ",\"";
      line += key;
      line += "\":";
      usys::json_append_double(line, value);
    }
    line += "}}";
    if (i + 1 < g_records.size()) line += ',';
    line += '\n';
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
