// StatsAccumulator + stats JSONL — the statistics half of the Monte Carlo
// sweep engine (docs/sweeps.md).
//
// MetricStats distills one metric's per-point samples into
// count/mean/stddev/min/max and sorted-exact quantiles. StatsRun is the
// document model for the stats JSONL file a sweep writes: a header line,
// one line per executed point (global index, drawn parameters, metric
// values, ok/pass flags), and recomputed summary lines. Because summaries
// and pass flags are always recomputed from the point records in
// global-index order with a fixed algorithm, and values round-trip exactly
// through the shared per-point codec (spice/point_record.hpp: 17
// significant digits through std::to_chars, byte-identical to printf's %g
// at precision 17; null for NaN, "inf"/"-inf"), merging per-shard files
// (`usim --merge-stats`) reproduces the single-process file byte for byte —
// the acceptance contract the determinism tests pin.
//
// Point lines hold the same PointRecord as the checkpoint journal but leave
// out attempts, error and failure on purpose: a resumed or retried run then
// writes the same stats as a clean one.
//
// Yield is evaluated against `.measure`-style bounds: a point passes when
// it simulated ok and every measure's metric lies inside [min, max].
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spice/point_record.hpp"

namespace usys::spice {

/// One `.measure <label> <metric> [min=v] [max=v]` bound.
struct MeasureSpec {
  std::string label;
  std::string metric;
  double lo = 0.0;
  double hi = 0.0;
  bool has_lo = false;
  bool has_hi = false;
};

/// True when `metrics` contains `m.metric` with a finite value inside the
/// bounds. A missing or non-finite metric fails the measure.
bool measure_passes(
    const std::vector<std::pair<std::string, double>>& metrics,
    const MeasureSpec& m) noexcept;

/// True when every measure passes (trivially true with no measures).
bool measures_pass(
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::vector<MeasureSpec>& measures) noexcept;

struct QuantilePoint {
  double q = 0.0;
  double value = 0.0;
};

/// Distilled statistics for one metric.
struct MetricSummary {
  std::string name;
  long n = 0;  ///< finite samples
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
  std::vector<QuantilePoint> quantiles;
};

/// Exact streaming accumulator for one metric. Samples are kept (Monte
/// Carlo runs are at most millions of doubles) so quantiles are
/// sorted-exact rather than approximated, and every statistic is computed
/// by a deterministic insertion-order pass — identical input order gives
/// bit-identical output, which is what makes shard-merge reproducible.
class MetricStats {
 public:
  /// Adds one sample; non-finite values are ignored (a failed point's NaN
  /// must not poison the distribution).
  void add(double v);

  long count() const noexcept { return static_cast<long>(samples_.size()); }
  double mean() const;
  double stddev() const;  ///< two-pass sample stddev (n-1)
  double min_value() const;
  double max_value() const;

  MetricSummary summary(const std::string& name,
                        const std::vector<double>& qs) const;

 private:
  std::vector<double> samples_;
};

/// The quantile levels reported in summaries and stats files.
const std::vector<double>& default_quantiles();

struct YieldSummary {
  long n = 0;     ///< executed points
  long ok = 0;    ///< simulated successfully
  long pass = 0;  ///< ok && inside every measure bound
  double yield = 0.0;  ///< pass / n (0 when n == 0)
  /// Per-measure failure counts among ok points, in measure order.
  std::vector<std::pair<std::string, long>> measure_failures;
};

/// The stats JSONL document: run identity (seed, grid size, mc draws,
/// shard), the measure bounds, and every executed point keyed by global
/// index. Summaries are derived, never stored authoritative state.
struct StatsRun {
  std::string seed_text = "0";  ///< decimal uint64 as text (exact on the wire)
  long total_points = 0;        ///< full grid size (all shards)
  int mc = 1;                   ///< Monte Carlo draws per grid combination
  int shard_index = 0;          ///< 0/0 = full run (canonical/merged form)
  int shard_count = 0;
  std::vector<MeasureSpec> measures;
  std::map<long, PointRecord> points;

  /// Records one executed outcome (skipped points are not recorded).
  void add_outcome(long index, const SweepPoint& point,
                   const SweepOutcome& outcome);

  /// Per-metric summaries over all recorded points, metrics in first-seen
  /// order over ascending point index.
  std::vector<MetricSummary> metric_summaries() const;

  YieldSummary yield() const;

  /// Serializes the canonical JSONL document (header, points in index
  /// order, metric summaries, yield).
  std::string to_jsonl() const;
};

/// Appends a summary's members (`"name":...,"n":...,...,"q":[...]`, no
/// braces): the stats file's metric lines and the server's sweep_stats
/// frame both write them.
void append_metric_summary(std::string& out, const MetricSummary& s);

/// Appends `[["label",failures],...]` in measure order.
void append_measure_failures(std::string& out, const YieldSummary& y);

/// A "k/n" shard as `usim --shard` and a stats header spell it: two decimal
/// numbers (parse_bounded: no sign, prefix or spaces) with
/// min_count <= n and 1 <= k <= n. False, outputs untouched, otherwise.
bool parse_shard(std::string_view text, int min_count, int& index, int& count);

/// Writes run.to_jsonl() atomically (tmp + rename).
bool write_stats(const std::string& path, const StatsRun& run,
                 std::string* error = nullptr);

/// Parses a stats JSONL file (header + point lines; summary lines are
/// ignored — they are recomputed on write).
bool load_stats(const std::string& path, StatsRun& run,
                std::string* error = nullptr);

/// Merges per-shard stats files into one canonical run: headers must agree
/// on seed/points/mc/measures, point records union by index (last file
/// wins on duplicates, as in the checkpoint journal), and the result is
/// marked unsharded so its serialization is byte-identical to a
/// single-process run over the same grid.
bool merge_stats(const std::vector<std::string>& inputs, StatsRun& out,
                 std::string* error = nullptr);

}  // namespace usys::spice
