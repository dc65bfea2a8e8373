#include "spice/sweep.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "spice/checkpoint.hpp"

namespace usys::spice {

SweepAxis SweepAxis::linspace(std::string name, double lo, double hi, int n) {
  SweepAxis axis;
  axis.name = std::move(name);
  if (n <= 1) {
    axis.values.push_back(lo);
    return axis;
  }
  axis.values.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    axis.values.push_back(lo + (hi - lo) * static_cast<double>(i) / (n - 1));
  return axis;
}

double SweepPoint::value(const std::string& name) const {
  for (const auto& [key, val] : params) {
    if (key == name) return val;
  }
  throw std::out_of_range("sweep point has no parameter '" + name + "'");
}

std::vector<SweepPoint> sweep_grid(const std::vector<SweepAxis>& axes) {
  std::vector<SweepPoint> grid;
  if (axes.empty()) return grid;
  std::size_t total = 1;
  for (const auto& axis : axes) {
    if (axis.values.empty()) return grid;  // empty axis -> empty grid
    total *= axis.values.size();
  }
  grid.reserve(total);
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    SweepPoint point;
    point.params.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a)
      point.params.emplace_back(axes[a].name, axes[a].values[idx[a]]);
    grid.push_back(std::move(point));
    // Odometer increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return grid;
}

namespace {

bool fail_spec(std::string* error, std::string why) {
  if (error) *error = std::move(why);
  return false;
}

/// Splits "a,b,c" into trimmed non-empty pieces.
std::vector<std::string> split_args(std::string_view s) {
  std::vector<std::string> out;
  for (const auto piece : split(s, ",")) {
    const auto t = trim(piece);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

}  // namespace

std::optional<ParamDist> parse_dist_spec(const std::string& name,
                                         const std::string& spec,
                                         std::string* error) {
  ParamDist dist;
  dist.name = name;
  const auto s = trim(spec);
  const std::string spec_text(s);
  const auto open = spec_text.find('(');
  if (open == std::string::npos) {
    const auto v = parse_spice_number(spec_text);
    if (!v) {
      fail_spec(error, "'" + spec_text + "' is not a number or dist(...)");
      return std::nullopt;
    }
    dist.kind = ParamDist::Kind::constant;
    dist.a = *v;
    return dist;
  }
  if (spec_text.empty() || spec_text.back() != ')') {
    fail_spec(error, "missing ')' in '" + spec_text + "'");
    return std::nullopt;
  }
  const auto head = to_lower(spec_text.substr(0, open));
  const auto args =
      split_args(std::string_view(spec_text).substr(open + 1, spec_text.size() - open - 2));
  auto two = [&](const char* what) -> bool {
    if (args.size() != 2)
      return fail_spec(error, std::string(what) + " wants exactly 2 arguments");
    const auto a = parse_spice_number(args[0]);
    const auto b = parse_spice_number(args[1]);
    if (!a || !b) return fail_spec(error, std::string(what) + ": bad number");
    dist.a = *a;
    dist.b = *b;
    return true;
  };
  if (head == "normal" || head == "gauss") {
    dist.kind = ParamDist::Kind::normal;
    if (!two("normal(mu,sigma)")) return std::nullopt;
    if (dist.b < 0.0) {
      fail_spec(error, "normal(mu,sigma): sigma must be >= 0");
      return std::nullopt;
    }
    return dist;
  }
  if (head == "uniform") {
    dist.kind = ParamDist::Kind::uniform;
    if (!two("uniform(lo,hi)")) return std::nullopt;
    if (dist.b < dist.a) {
      fail_spec(error, "uniform(lo,hi): hi must be >= lo");
      return std::nullopt;
    }
    return dist;
  }
  if (head == "corner") {
    dist.kind = ParamDist::Kind::corner;
    if (args.empty()) {
      fail_spec(error, "corner(...) wants at least one value");
      return std::nullopt;
    }
    for (const auto& arg : args) {
      const auto v = parse_spice_number(arg);
      if (!v) {
        fail_spec(error, "corner(...): '" + arg + "' is not a number");
        return std::nullopt;
      }
      dist.values.push_back(*v);
    }
    return dist;
  }
  fail_spec(error, "unknown distribution '" + head +
                       "' (want normal, uniform, or corner)");
  return std::nullopt;
}

std::optional<SweepEntry> parse_sweep_entry(const std::string& arg,
                                            std::string* error) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    fail_spec(error, "want name=spec");
    return std::nullopt;
  }
  const std::string name(trim(arg.substr(0, eq)));
  const std::string spec(trim(arg.substr(eq + 1)));
  if (name.empty() || spec.empty()) {
    fail_spec(error, "want name=spec");
    return std::nullopt;
  }
  SweepEntry entry;
  if (spec.find('(') != std::string::npos) {
    auto dist = parse_dist_spec(name, spec, error);
    if (!dist) return std::nullopt;
    entry.is_dist = true;
    entry.dist = std::move(*dist);
    return entry;
  }
  entry.axis.name = name;
  if (spec.find(':') != std::string::npos) {
    const auto pieces = split(spec, ":");
    if (pieces.size() != 3) {
      fail_spec(error, "range spec wants lo:hi:n");
      return std::nullopt;
    }
    const auto lo = parse_spice_number(pieces[0]);
    const auto hi = parse_spice_number(pieces[1]);
    const auto n = parse_bounded(trim(pieces[2]), 1, 1'000'000);
    if (!lo || !hi || !n) {
      fail_spec(error, "range spec wants lo:hi:n with 1 <= n <= 1e6");
      return std::nullopt;
    }
    entry.axis.values = SweepAxis::linspace(name, *lo, *hi, *n).values;
    return entry;
  }
  for (const auto piece : split(spec, ",")) {
    const auto v = parse_spice_number(trim(piece));
    if (!v) {
      const std::string bad(trim(piece));
      fail_spec(error, "'" + bad + "' is not a number");
      return std::nullopt;
    }
    entry.axis.values.push_back(*v);
  }
  if (entry.axis.values.empty()) {
    fail_spec(error, "empty value list");
    return std::nullopt;
  }
  return entry;
}

std::vector<SweepPoint> mc_grid(const std::vector<SweepAxis>& axes,
                                const std::vector<ParamDist>& dists,
                                const McOptions& mc) {
  // Corner dists become grid axes after the explicit ones (declaration
  // order), so corners enumerate as a cartesian product composed with the
  // sweep grid; random/constant dists append per point below.
  std::vector<SweepAxis> full_axes = axes;
  for (const auto& dist : dists) {
    if (dist.kind != ParamDist::Kind::corner) continue;
    SweepAxis axis;
    axis.name = dist.name;
    axis.values = dist.values;
    full_axes.push_back(std::move(axis));
  }
  std::vector<SweepPoint> base = sweep_grid(full_axes);
  if (base.empty()) {
    if (!full_axes.empty()) return base;  // an axis was empty: empty grid
    base.emplace_back();                  // no axes at all: one empty point
  }

  std::vector<std::uint64_t> name_hash(dists.size());
  for (std::size_t d = 0; d < dists.size(); ++d) name_hash[d] = rng_hash_name(dists[d].name);

  const int samples = std::max(1, mc.samples);
  std::vector<SweepPoint> grid;
  grid.reserve(base.size() * static_cast<std::size_t>(samples));
  for (const auto& b : base) {
    for (int m = 0; m < samples; ++m) {
      const auto index = static_cast<std::uint64_t>(grid.size());
      SweepPoint point;
      point.params.reserve(b.params.size() + dists.size());
      point.params = b.params;
      for (std::size_t d = 0; d < dists.size(); ++d) {
        const ParamDist& dist = dists[d];
        switch (dist.kind) {
          case ParamDist::Kind::constant:
            point.params.emplace_back(dist.name, dist.a);
            break;
          case ParamDist::Kind::normal:
            point.params.emplace_back(
                dist.name, rng_normal(mc.seed, index, name_hash[d], dist.a, dist.b));
            break;
          case ParamDist::Kind::uniform:
            point.params.emplace_back(
                dist.name, rng_uniform(mc.seed, index, name_hash[d], dist.a, dist.b));
            break;
          case ParamDist::Kind::corner:
            break;  // already a grid axis
        }
      }
      grid.push_back(std::move(point));
    }
  }
  return grid;
}

std::string shard_suffixed_path(const std::string& path, int shard_index,
                                int shard_count) {
  if (shard_count <= 1) return path;
  const std::string suffix = ".shard" + std::to_string(shard_index) + "of" +
                             std::to_string(shard_count);
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + suffix;
  return path.substr(0, dot) + suffix + path.substr(dot);
}

bool shard_owns(std::size_t index, int shard_index, int shard_count) noexcept {
  if (shard_count <= 1) return true;
  return index % static_cast<std::size_t>(shard_count) ==
         static_cast<std::size_t>(shard_index - 1);
}

SweepRunner::SweepRunner(int threads) : threads_(ThreadPool::threads_for(threads)) {}

namespace {

/// The isolation boundary: whatever escapes the job becomes a structured
/// per-point failure, never a batch abort. bad_alloc is distinguished (the
/// one exception a survivability sweep most wants to see by kind); anything
/// else is internal_error. `error` stays exactly e.what() — the stable
/// contract existing callers rely on.
SweepOutcome run_isolated(const SweepRunner::RetryJob& job, const SweepPoint& point,
                          int attempt) {
  SweepOutcome out;
  try {
    out = job(point, attempt);
  } catch (const std::bad_alloc&) {
    out = SweepOutcome{};
    out.error = "allocation failure";
    out.failure = make_failure(FailureKind::alloc_failure, "sweep", "std::bad_alloc");
  } catch (const std::exception& e) {
    out = SweepOutcome{};
    out.error = e.what();
    out.failure = make_failure(FailureKind::internal_error, "sweep", e.what());
  }
  // A job may signal failure without filling the structured record (legacy
  // jobs set only ok/error); backfill so the checkpoint always has a kind.
  if (!out.ok && out.failure.ok())
    out.failure = make_failure(FailureKind::internal_error, "sweep", out.error);
  return out;
}

}  // namespace

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepPoint>& grid,
                                           const Job& job) const {
  return run(
      grid, [&job](const SweepPoint& p, int /*attempt*/) { return job(p); },
      SweepOptions{});
}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepPoint>& grid,
                                           const RetryJob& job,
                                           const SweepOptions& opts) const {
  std::vector<SweepOutcome> results(grid.size());

  // --- Resume: restore completed points before scheduling anything --------
  // "Completed" means recorded ok with the same parameters; failed points
  // are unfinished and re-run (that is what resuming is for). A parameter
  // mismatch means the checkpoint belongs to a different grid — refuse
  // rather than silently mixing results.
  if (!opts.resume_path.empty()) {
    CheckpointData ckpt;
    std::string err;
    if (!load_checkpoint(opts.resume_path, ckpt, &err))
      throw std::runtime_error("sweep resume: " + err);
    for (const auto& [index, rec] : ckpt.records) {
      if (index < 0 || static_cast<std::size_t>(index) >= grid.size())
        throw std::runtime_error(
            "sweep resume: checkpoint index " + std::to_string(index) +
            " outside the grid (" + std::to_string(grid.size()) + " points)");
      const auto k = static_cast<std::size_t>(index);
      if (rec.point.params != grid[k].params)
        throw std::runtime_error("sweep resume: checkpoint point " + std::to_string(index) +
                                 " has different parameters than the grid — wrong "
                                 "checkpoint file for this sweep");
      if (!rec.outcome.ok) continue;  // unfinished: re-run
      results[k] = rec.outcome;
      results[k].restored = true;
      results[k].attempts = 0;
    }
  }

  // --- Work list: on-shard, not restored ----------------------------------
  std::vector<std::size_t> todo;
  todo.reserve(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    if (results[k].restored) continue;
    if (!shard_owns(k, opts.shard_index, opts.shard_count)) {
      results[k].skipped = true;
      continue;
    }
    todo.push_back(k);
  }

  std::unique_ptr<CheckpointWriter> writer;
  std::mutex writer_mu;
  if (!opts.checkpoint_path.empty())
    writer = std::make_unique<CheckpointWriter>(opts.checkpoint_path);

  const auto ntodo = static_cast<int>(todo.size());
  const std::function<void(int)> run_point = [&](int i) {
    const std::size_t k = todo[static_cast<std::size_t>(i)];
    SweepOutcome out = run_isolated(job, grid[k], 0);
    out.attempts = 1;
    for (int attempt = 1; !out.ok && attempt <= opts.retries; ++attempt) {
      SweepOutcome retry = run_isolated(job, grid[k], attempt);
      retry.attempts = attempt + 1;
      out = std::move(retry);
    }
    if (writer) {
      // Journal the FINAL verdict only (retries are one point's attempts,
      // not separate records); serialize appends — completion order is
      // nondeterministic, the per-index records make that harmless.
      std::lock_guard<std::mutex> lock(writer_mu);
      writer->append(static_cast<long>(k), grid[k], out);
    }
    results[k] = std::move(out);
  };
  if (threads_ > 1) {
    ThreadPool::shared().run(ntodo, run_point, threads_);
  } else {
    for (int i = 0; i < ntodo; ++i) run_point(i);  // width 1 never touches the pool
  }
  return results;
}

}  // namespace usys::spice
