#include "spice/stats.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace usys::spice {

bool measure_passes(
    const std::vector<std::pair<std::string, double>>& metrics,
    const MeasureSpec& m) noexcept {
  for (const auto& [name, value] : metrics) {
    if (name != m.metric) continue;
    if (!std::isfinite(value)) return false;
    if (m.has_lo && value < m.lo) return false;
    if (m.has_hi && value > m.hi) return false;
    return true;
  }
  return false;  // metric absent: the bound cannot be verified -> fail
}

bool measures_pass(
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::vector<MeasureSpec>& measures) noexcept {
  for (const auto& m : measures)
    if (!measure_passes(metrics, m)) return false;
  return true;
}

namespace {

/// Quantile of ascending `sorted` with linear interpolation between closest
/// ranks (numpy's default, type 7): q in [0,1]. 0 with no samples.
double quantile_of_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

void MetricStats::add(double v) {
  if (std::isfinite(v)) samples_.push_back(v);
}

double MetricStats::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double MetricStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double ss = 0.0;
  for (double v : samples_) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

double MetricStats::min_value() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double MetricStats::max_value() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

MetricSummary MetricStats::summary(const std::string& name,
                                   const std::vector<double>& qs) const {
  MetricSummary s;
  s.name = name;
  s.n = count();
  s.mean = mean();
  s.stddev = stddev();
  s.min = min_value();
  s.max = max_value();
  // One sort shared by all quantile levels.
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  for (double q : qs) s.quantiles.push_back({q, quantile_of_sorted(sorted, q)});
  return s;
}

const std::vector<double>& default_quantiles() {
  static const std::vector<double> qs = {0.01, 0.05, 0.25, 0.5,
                                         0.75, 0.95, 0.99};
  return qs;
}

void StatsRun::add_outcome(long index, const SweepPoint& point,
                           const SweepOutcome& outcome) {
  if (outcome.skipped) return;
  // Sweeps record in ascending index order, so the end is the usual hint.
  points.insert_or_assign(points.end(), index, PointRecord{index, point, outcome});
}

std::vector<MetricSummary> StatsRun::metric_summaries() const {
  // Accumulate in ascending point index; metric columns in first-seen
  // order. Both orders are deterministic, so the summaries are too.
  std::vector<std::string> names;
  std::vector<MetricStats> stats;
  for (const auto& [index, rec] : points) {
    if (!rec.outcome.ok) continue;
    for (const auto& [name, value] : rec.outcome.metrics) {
      std::size_t slot = 0;
      for (; slot < names.size(); ++slot)
        if (names[slot] == name) break;
      if (slot == names.size()) {
        names.push_back(name);
        stats.emplace_back();
      }
      stats[slot].add(value);
    }
  }
  std::vector<MetricSummary> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    out.push_back(stats[i].summary(names[i], default_quantiles()));
  return out;
}

YieldSummary StatsRun::yield() const {
  YieldSummary y;
  std::vector<long> fails(measures.size(), 0);
  for (const auto& [index, rec] : points) {
    ++y.n;
    if (!rec.outcome.ok) continue;
    ++y.ok;
    bool pass = true;
    for (std::size_t m = 0; m < measures.size(); ++m) {
      if (measure_passes(rec.outcome.metrics, measures[m])) continue;
      ++fails[m];
      pass = false;
    }
    if (pass) ++y.pass;
  }
  y.yield = y.n > 0 ? static_cast<double>(y.pass) / static_cast<double>(y.n)
                    : 0.0;
  for (std::size_t m = 0; m < measures.size(); ++m)
    y.measure_failures.emplace_back(measures[m].label, fails[m]);
  return y;
}

void append_metric_summary(std::string& out, const MetricSummary& s) {
  out += "\"name\":";
  json_append_escaped(out, s.name);
  out += ",\"n\":";
  json_append_integer(out, s.n);
  out += ",\"mean\":";
  json_append_double(out, s.mean);
  out += ",\"stddev\":";
  json_append_double(out, s.stddev);
  out += ",\"min\":";
  json_append_double(out, s.min);
  out += ",\"max\":";
  json_append_double(out, s.max);
  out += ",\"q\":[";
  for (std::size_t i = 0; i < s.quantiles.size(); ++i) {
    if (i) out += ',';
    out += '[';
    json_append_double(out, s.quantiles[i].q);
    out += ',';
    json_append_double(out, s.quantiles[i].value);
    out += ']';
  }
  out += ']';
}

void append_measure_failures(std::string& out, const YieldSummary& y) {
  out += '[';
  for (std::size_t m = 0; m < y.measure_failures.size(); ++m) {
    if (m) out += ',';
    out += '[';
    json_append_escaped(out, y.measure_failures[m].first);
    out += ',';
    json_append_integer(out, y.measure_failures[m].second);
    out += ']';
  }
  out += ']';
}

namespace {

/// Bytes of one point line shaped like `rec`: the fixed keys plus, per
/// value, its quoted name, brackets and up to 24 characters of number.
std::size_t point_line_size(const PointRecord& rec) {
  std::size_t n = 80;
  for (const auto& [name, value] : rec.point.params) n += name.size() + 30;
  for (const auto& [name, value] : rec.outcome.metrics) n += name.size() + 30;
  return n;
}

}  // namespace

std::string StatsRun::to_jsonl() const {
  std::string out;
  // Every point of a sweep carries the same names, so the first point's
  // line size stands for all of them; the header and summaries are small.
  const std::size_t line = points.empty() ? 0 : point_line_size(points.begin()->second);
  out.reserve(1024 + points.size() * line);

  // Header. The seed travels as a decimal string so the full uint64 range
  // survives the double-only JSON number model.
  out += "{\"v\":1,\"stats\":\"header\",\"seed\":";
  json_append_escaped(out, seed_text);
  out += ",\"points\":";
  json_append_integer(out, total_points);
  out += ",\"mc\":";
  json_append_integer(out, mc);
  out += ",\"shard\":\"";
  if (shard_count > 1) {
    json_append_integer(out, shard_index);
    out += '/';
    json_append_integer(out, shard_count);
  } else {
    out += "full";
  }
  out += "\",\"measures\":[";
  for (std::size_t m = 0; m < measures.size(); ++m) {
    if (m) out += ',';
    out += '[';
    json_append_escaped(out, measures[m].label);
    out += ',';
    json_append_escaped(out, measures[m].metric);
    out += ',';
    if (measures[m].has_lo)
      json_append_double(out, measures[m].lo);
    else
      out += "null";
    out += ',';
    if (measures[m].has_hi)
      json_append_double(out, measures[m].hi);
    else
      out += "null";
    out += ']';
  }
  out += "]}\n";

  // Points, ascending global index (std::map order). attempts, error and
  // failure are left out: resumed and retried runs must write the same
  // stats as a clean one.
  for (const auto& [index, rec] : points) {
    const bool ok = rec.outcome.ok;
    const bool pass = ok && measures_pass(rec.outcome.metrics, measures);
    out += "{\"stats\":\"point\",\"i\":";
    json_append_integer(out, index);
    out += pass ? ",\"ok\":true,\"pass\":true,\"params\":"
           : ok ? ",\"ok\":true,\"pass\":false,\"params\":"
                : ",\"ok\":false,\"pass\":false,\"params\":";
    append_named_values(out, rec.point.params);
    out += ",\"metrics\":";
    append_named_values(out, rec.outcome.metrics);
    out += "}\n";
  }

  // Derived summaries.
  for (const auto& s : metric_summaries()) {
    out += "{\"stats\":\"metric\",";
    append_metric_summary(out, s);
    out += "}\n";
  }

  const YieldSummary y = yield();
  out += "{\"stats\":\"yield\",\"n\":";
  json_append_integer(out, y.n);
  out += ",\"ok\":";
  json_append_integer(out, y.ok);
  out += ",\"pass\":";
  json_append_integer(out, y.pass);
  out += ",\"yield\":";
  json_append_double(out, y.yield);
  out += ",\"measures\":";
  append_measure_failures(out, y);
  out += "}\n";
  return out;
}

bool write_stats(const std::string& path, const StatsRun& run,
                 std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot open '" + tmp + "' for writing";
      return false;
    }
    out << run.to_jsonl();
    if (!out) {
      if (error) *error = "write to '" + tmp + "' failed";
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = "cannot rename '" + tmp + "' to '" + path + "'";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool parse_shard(std::string_view text, int min_count, int& index, int& count) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return false;
  const auto n = parse_bounded(text.substr(slash + 1), min_count, INT_MAX);
  if (!n) return false;
  const auto k = parse_bounded(text.substr(0, slash), 1, *n);
  if (!k) return false;
  index = *k;
  count = *n;
  return true;
}

namespace {

bool measures_equal(const std::vector<MeasureSpec>& a,
                    const std::vector<MeasureSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].metric != b[i].metric ||
        a[i].has_lo != b[i].has_lo || a[i].has_hi != b[i].has_hi)
      return false;
    if (a[i].has_lo && a[i].lo != b[i].lo) return false;
    if (a[i].has_hi && a[i].hi != b[i].hi) return false;
  }
  return true;
}

}  // namespace

bool load_stats(const std::string& path, StatsRun& run, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open stats file '" + path + "'";
    return false;
  }
  run = StatsRun{};
  bool saw_header = false;
  std::string line;
  long lineno = 0;
  auto fail = [&](const std::string& why) {
    if (error)
      *error = path + ":" + std::to_string(lineno) + ": " + why;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto doc = json_parse(line);
    if (!doc || !doc->is_object()) return fail("not a JSON object");
    const std::string kind = doc->get_string("stats");
    if (kind == "header") {
      saw_header = true;
      run.seed_text = doc->get_string("seed", "0");
      const JsonValue* points = doc->find("points");
      if (points && !json_read_integer(*points, 0, kMaxPointIndex,
                                       run.total_points))
        return fail("bad points field");
      const JsonValue* mc = doc->find("mc");
      if (mc && !read_int(*mc, 0, run.mc)) return fail("bad mc field");
      const std::string shard = doc->get_string("shard", "full");
      if (shard != "full" && !parse_shard(shard, 2, run.shard_index, run.shard_count))
        return fail("bad shard field");
      if (const JsonValue* ms = doc->find("measures")) {
        if (!ms->is_array()) return fail("bad measures field");
        for (const auto& item : ms->items()) {
          if (!item.is_array() || item.items().size() != 4 ||
              !item.items()[0].is_string() || !item.items()[1].is_string())
            return fail("bad measure entry");
          MeasureSpec spec;
          spec.label = item.items()[0].as_string();
          spec.metric = item.items()[1].as_string();
          if (item.items()[2].is_number()) {
            spec.has_lo = true;
            spec.lo = item.items()[2].as_number();
          }
          if (item.items()[3].is_number()) {
            spec.has_hi = true;
            spec.hi = item.items()[3].as_number();
          }
          run.measures.push_back(std::move(spec));
        }
      }
    } else if (kind == "point") {
      // "pass" is derived from the header's measures, never read back.
      PointRecord rec;
      if (!read_point_index(*doc, rec.index)) return fail("bad point index");
      rec.outcome.ok = doc->get_bool("ok");
      const JsonValue* params = doc->find("params");
      const JsonValue* metrics = doc->find("metrics");
      if (!params || !read_named_values(*params, rec.point.params))
        return fail("bad params field");
      if (!metrics || !read_named_values(*metrics, rec.outcome.metrics))
        return fail("bad metrics field");
      run.points[rec.index] = std::move(rec);
    }
    // metric / yield summary lines are derived state: ignored on load.
  }
  if (!saw_header) {
    if (error) *error = path + ": missing stats header line";
    return false;
  }
  return true;
}

bool merge_stats(const std::vector<std::string>& inputs, StatsRun& out,
                 std::string* error) {
  if (inputs.empty()) {
    if (error) *error = "no stats files to merge";
    return false;
  }
  out = StatsRun{};
  bool first = true;
  for (const auto& path : inputs) {
    StatsRun shard;
    if (!load_stats(path, shard, error)) return false;
    if (first) {
      out.seed_text = shard.seed_text;
      out.total_points = shard.total_points;
      out.mc = shard.mc;
      out.measures = shard.measures;
      first = false;
    } else if (shard.seed_text != out.seed_text ||
               shard.total_points != out.total_points ||
               shard.mc != out.mc ||
               !measures_equal(shard.measures, out.measures)) {
      if (error)
        *error = "'" + path +
                 "' is from a different run (seed/points/mc/measures "
                 "mismatch) — refusing to merge";
      return false;
    }
    for (auto& [index, rec] : shard.points) out.points[index] = std::move(rec);
  }
  // The merged document is the canonical unsharded form.
  out.shard_index = 0;
  out.shard_count = 0;
  return true;
}

}  // namespace usys::spice
