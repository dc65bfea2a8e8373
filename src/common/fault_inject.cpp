#include "common/fault_inject.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/strings.hpp"

namespace usys::fault {

namespace {

struct Site {
  // Count mode: fire on hits [nth, nth + count) — count < 0 means forever.
  // Random mode: fire when hash(seed, hit) < probability.
  bool random_mode = false;
  long nth = 1;
  long count = 1;
  double probability = 0.0;
  std::uint64_t seed = 0;
  long hits = 0;
  long fired = 0;

  bool fires_on(long hit) const noexcept {
    if (random_mode) {
      // splitmix64 of (seed ^ hit): a pure function of the pair, so the
      // firing pattern replays exactly for a given seed.
      std::uint64_t z = seed ^ (static_cast<std::uint64_t>(hit) * 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
      return u < probability;
    }
    if (hit < nth) return false;
    return count < 0 || hit < nth + count;
  }
};

struct State {
  std::mutex mu;
  std::map<std::string, Site, std::less<>> sites;

  State() {
    // Environment arming: lets the CLI and CI smokes inject without a flag.
    if (const char* spec = std::getenv("USYS_FAULT"); spec != nullptr && *spec != '\0')
      arm_from_spec_locked(spec, nullptr);
  }

  bool arm_from_spec_locked(std::string_view spec, std::string* err);
};

State& state() {
  static State s;
  return s;
}

/// Parses one "site:nth[:count]" or "site~p@seed" entry into (name, site).
bool parse_entry(std::string_view entry, std::string& name, Site& site,
                 std::string* err) {
  const auto fail = [&](const char* why) {
    if (err != nullptr) {
      *err = "bad fault spec entry '";
      err->append(entry);
      *err += "': ";
      *err += why;
    }
    return false;
  };
  if (const auto tilde = entry.find('~'); tilde != std::string_view::npos) {
    name = std::string(entry.substr(0, tilde));
    const std::string_view rest = entry.substr(tilde + 1);
    const auto at = rest.find('@');
    if (name.empty() || at == std::string_view::npos)
      return fail("want site~probability@seed");
    const auto p = parse_bounded(rest.substr(0, at), 0.0, 1.0);
    if (!p) return fail("probability must be in [0, 1]");
    const auto seed = parse_bounded(rest.substr(at + 1), 0L, LONG_MAX);
    if (!seed) return fail("seed must be a non-negative integer");
    site.random_mode = true;
    site.probability = *p;
    site.seed = static_cast<std::uint64_t>(*seed);
    return true;
  }
  const auto colon = entry.find(':');
  name = std::string(entry.substr(0, colon));
  if (name.empty()) return fail("empty site name");
  site = Site{};
  if (colon == std::string_view::npos) return true;  // defaults: nth=1, count=1
  const std::string_view rest = entry.substr(colon + 1);
  const auto colon2 = rest.find(':');
  const auto nth = parse_bounded(rest.substr(0, colon2), 1L, LONG_MAX);
  if (!nth) return fail("nth must be a positive integer");
  site.nth = *nth;
  if (colon2 == std::string_view::npos) return true;
  const auto count = parse_bounded(rest.substr(colon2 + 1), LONG_MIN, LONG_MAX);
  if (!count || *count == 0)
    return fail("count must be a non-zero integer (negative = forever)");
  site.count = *count;
  return true;
}

}  // namespace

bool State::arm_from_spec_locked(std::string_view spec, std::string* err) {
  // Two-phase: parse everything first so a malformed tail arms nothing.
  std::vector<std::pair<std::string, Site>> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t sep = spec.find_first_of(";,", start);
    const std::string_view entry =
        spec.substr(start, sep == std::string_view::npos ? spec.size() - start
                                                         : sep - start);
    if (!entry.empty()) {
      std::string name;
      Site site;
      if (!parse_entry(entry, name, site, err)) return false;
      parsed.emplace_back(std::move(name), site);
    }
    if (sep == std::string_view::npos) break;
    start = sep + 1;
  }
  for (auto& [name, site] : parsed) sites[name] = site;
  return true;
}

void arm(std::string_view site, long nth, long count) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  Site t;
  t.nth = nth < 1 ? 1 : nth;
  t.count = count;
  s.sites[std::string(site)] = t;
}

void arm_random(std::string_view site, double probability, std::uint64_t seed) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  Site t;
  t.random_mode = true;
  t.probability = std::clamp(probability, 0.0, 1.0);
  t.seed = seed;
  s.sites[std::string(site)] = t;
}

void disarm(std::string_view site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.sites.find(site); it != s.sites.end()) s.sites.erase(it);
}

void disarm_all() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sites.clear();
}

long hits(std::string_view site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.sites.find(site);
  return it == s.sites.end() ? 0 : it->second.hits;
}

long fired(std::string_view site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.sites.find(site);
  return it == s.sites.end() ? 0 : it->second.fired;
}

std::vector<std::string> armed_sites() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::string> out;
  out.reserve(s.sites.size());
  for (const auto& [name, site] : s.sites) out.push_back(name);
  return out;  // std::map iterates sorted
}

bool arm_from_spec(std::string_view spec, std::string* err) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.arm_from_spec_locked(spec, err);
}

bool should_fail(const char* site) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sites.empty()) return false;
  const auto it = s.sites.find(std::string_view(site));
  if (it == s.sites.end()) return false;
  Site& t = it->second;
  ++t.hits;
  const bool fire = t.fires_on(t.hits);
  if (fire) ++t.fired;
  return fire;
}

}  // namespace usys::fault
