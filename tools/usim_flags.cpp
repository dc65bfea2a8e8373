#include "usim_flags.hpp"

#include <bit>
#include <iterator>
#include <limits>
#include <ostream>
#include <utility>

#include "api/api.hpp"
#include "common/strings.hpp"
#include "spice/stats.hpp"

namespace usys::usim {

namespace {

/// How a flag's value is written.
enum class Grammar {
  none,      ///< a switch: no value
  text,      ///< any non-empty string (a path, a spec)
  integer,   ///< decimal digits in [lo, hi] (parse_bounded)
  duration,  ///< a finite number of milliseconds >= 0
  choice,    ///< one of the '|'-separated words of the synopsis
  shard,     ///< k/n with 1 <= k <= n (spice::parse_shard)
};

struct Value {
  std::string_view text;
  std::uint64_t n = 0;  ///< Grammar::integer
  double ms = 0.0;      ///< Grammar::duration
  int k = 0;            ///< Grammar::shard
  int of = 0;
};

struct Flag {
  /// The spelling, then how its value is written: "--mc=N", "--sweep
  /// name=spec", "--lint[=error|warn]" (the brackets make it optional).
  const char* synopsis;
  Grammar grammar;
  std::uint64_t lo, hi;  ///< Grammar::integer bounds
  unsigned modes;
  const char* help;  ///< lines separated by '\n'
  void (*set)(Args&, const Value&);
};

constexpr unsigned kClient = kClientJob | kClientControl;
constexpr unsigned kPlan = kSweep | kLint | kClientJob;  ///< the modes that plan a sweep
constexpr unsigned kAll = kSingle | kSweep | kLint | kServe | kClient | kMerge;

const Flag kFlags[] = {
    {"--lint[=error|warn]", Grammar::choice, 0, 0, kLint, "lint, not run (warn: warnings fail)",
     [](Args& a, const Value& v) { a.lint = true; a.lint_warn |= v.text == "warn"; }},
    {"--lint-format=text|json", Grammar::choice, 0, 0, kLint, "lint output format",
     [](Args& a, const Value& v) { a.lint_json |= v.text == "json"; }},
    {"--csv=<path>", Grammar::text, 0, 0, kSingle | kSweep, "write the series/sweep table as CSV",
     [](Args& a, const Value& v) { a.csv = v.text; }},
    {"--sweep name=spec", Grammar::text, 0, 0, kPlan, "sweep {name} (docs/sweeps.md)",
     [](Args& a, const Value& v) { a.job.sweep_specs.emplace_back(v.text); }},
    {"--mc=N", Grammar::integer, 1, api::kMaxMcSamples, kPlan, "Monte Carlo draws per point",
     [](Args& a, const Value& v) { a.job.mc = static_cast<int>(v.n); }},
    {"--seed=S", Grammar::integer, 0, UINT64_MAX, kPlan, "RNG seed (default 0)",
     [](Args& a, const Value& v) { a.job.seed = v.text; }},
    {"--stats-out=<path>", Grammar::text, 0, 0, kSweep, "write the stats JSONL document",
     [](Args& a, const Value& v) { a.stats_out = v.text; }},
    {"--merge-stats=<out>", Grammar::text, 0, 0, kMerge, "merge the stats files named after it",
     [](Args& a, const Value& v) { a.merge_out = v.text; }},
    {"--set DEV.PARAM=V", Grammar::text, 0, 0, kSingle | kClientJob, "override a device parameter",
     [](Args& a, const Value& v) { a.job.set_specs.emplace_back(v.text); }},
    {"--threads=N", Grammar::integer, 0, kMaxThreads, kSweep, "sweep workers (default 0 = auto)",
     [](Args& a, const Value& v) { a.threads = static_cast<int>(v.n); }},
    {"--hdl-mode=ast|bytecode|codegen", Grammar::choice, 0, 0, kSingle | kPlan, "HDL executor",
     [](Args& a, const Value& v) { a.job.hdl_mode = v.text; }},
    {"--timeout=<ms>", Grammar::duration, 0, 0, kSingle | kSweep | kClientJob,
     "wall-clock budget per card, sweep point or job (exit 3)",
     [](Args& a, const Value& v) { a.job.timeout_ms = v.ms; }},
    {"--retries=N", Grammar::integer, 0, 100, kSweep, "re-run a failed point with doubled limits",
     [](Args& a, const Value& v) { a.sweep.retries = static_cast<int>(v.n); }},
    {"--checkpoint=<path>", Grammar::text, 0, 0, kSweep, "journal each finished point",
     [](Args& a, const Value& v) { a.sweep.checkpoint_path = v.text; }},
    {"--resume=<path>", Grammar::text, 0, 0, kSweep, "restore a checkpoint's points, run the rest",
     [](Args& a, const Value& v) { a.sweep.resume_path = v.text; }},
    {"--shard=k/n", Grammar::shard, 0, 0, kSweep, "run only points i with i mod n = k - 1",
     [](Args& a, const Value& v) { a.sweep.shard_index = v.k; a.sweep.shard_count = v.of; }},
    {"--serve=<socket>", Grammar::text, 0, 0, kServe, "run the daemon on a Unix socket",
     [](Args& a, const Value& v) { a.serve.socket_path = v.text; }},
    {"--serve-workers=N", Grammar::integer, 1, kMaxThreads, kServe, "job threads (default 2)",
     [](Args& a, const Value& v) { a.serve.workers = static_cast<int>(v.n); }},
    {"--serve-queue=N", Grammar::integer, 1, 100'000, kServe, "queue before busy (default 16)",
     [](Args& a, const Value& v) { a.serve.queue_capacity = static_cast<int>(v.n); }},
    {"--serve-cache=N", Grammar::integer, 1, 10'000, kServe, "warm engines kept (default 8)",
     [](Args& a, const Value& v) { a.serve.engine_cache_capacity = static_cast<int>(v.n); }},
    {"--client=<socket>", Grammar::text, 0, 0, kClient, "send the job to a --serve daemon",
     [](Args& a, const Value& v) { a.client_path = v.text; }},
    {"--stats", Grammar::none, 0, 0, kClientControl, "request the server's /stats snapshot",
     [](Args& a, const Value&) { a.job.op = server::Request::Op::stats; }},
    {"--ping", Grammar::none, 0, 0, kClientControl, "liveness probe (pong)",
     [](Args& a, const Value&) { a.job.op = server::Request::Op::ping; }},
    {"--shutdown", Grammar::none, 0, 0, kClientControl, "ask the daemon to exit",
     [](Args& a, const Value&) { a.job.op = server::Request::Op::shutdown; }},
    {"--no-cache", Grammar::none, 0, 0, kClientJob, "bypass the server's result cache",
     [](Args& a, const Value&) { a.job.no_cache = true; }},
    {"--quiet", Grammar::none, 0, 0, kAll, "suppress info/warn chatter",
     [](Args& a, const Value&) { a.quiet = true; }},
    {"--help", Grammar::none, 0, 0, kAll, "print this (also -h)", [](Args&, const Value&) {}},
};
static_assert(std::size(kFlags) <= 32, "Args::given holds one bit per flag");

std::string_view name_of(const Flag& f) {
  const std::string_view s = f.synopsis;
  return s.substr(0, s.find_first_of(" =["));
}

const Flag* find_flag(std::string_view name) {
  for (const Flag& f : kFlags)
    if (name_of(f) == name) return &f;
  return nullptr;
}

bool value_optional(const Flag& f) {
  return std::string_view(f.synopsis).find("[=") != std::string_view::npos;
}

const char* mode_name(unsigned mode) {
  static const char* const kNames[] = {"single-run", "sweep",          "lint", "serve",
                                       "client",     "client control", "merge"};
  return kNames[std::countr_zero(mode)];
}

/// Reads `v.text` by the flag's grammar. Empty when it fits, otherwise
/// what the flag wants.
std::string read_value(const Flag& f, Value& v) {
  switch (f.grammar) {
    case Grammar::none:
      return "";
    case Grammar::text:
      return v.text.empty() ? "a non-empty value" : "";
    case Grammar::integer:
      if (const auto n = parse_bounded(v.text, f.lo, f.hi)) {
        v.n = *n;
        return "";
      }
      return "an integer in [" + std::to_string(f.lo) + ", " + std::to_string(f.hi) + "]";
    case Grammar::duration:
      if (const auto ms = parse_bounded(v.text, 0.0, std::numeric_limits<double>::max())) {
        v.ms = *ms;
        return "";
      }
      return "a finite number of milliseconds >= 0";
    case Grammar::shard:
      return spice::parse_shard(v.text, 1, v.k, v.of) ? "" : "k/n with 1 <= k <= n";
    case Grammar::choice:
      break;
  }
  std::string_view choices = f.synopsis;
  choices = choices.substr(choices.find('=') + 1);
  if (choices.back() == ']') choices.remove_suffix(1);
  for (const std::string_view word : split(choices, "|"))
    if (word == v.text) return "";
  return std::string(choices);
}

}  // namespace

bool Args::has(std::string_view flag) const {
  const Flag* f = find_flag(flag);
  return f != nullptr && (given >> (f - kFlags) & 1U) != 0;
}

std::optional<int> parse_args(int argc, const char* const* argv, Args& a, std::ostream& out,
                              std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help" || std::string_view(argv[i]) == "-h") {
      print_help(out);
      return 0;
    }
  }
  if (argc < 2) {
    print_help(err);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      a.positionals.emplace_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const Flag* f = find_flag(name);
    const bool joined = eq != std::string_view::npos;
    Value v;
    std::string error;
    if (f == nullptr) {
      error = "unknown flag '" + std::string(arg) + "'";
    } else if (joined) {
      v.text = arg.substr(eq + 1);
      if (f->grammar == Grammar::none) error = std::string(name) + " takes no value";
    } else if (f->grammar != Grammar::none && !value_optional(*f)) {
      if (i + 1 < argc) {
        v.text = argv[++i];
      } else {
        error = std::string(name) + " needs a value";
      }
    }
    if (error.empty() && (joined || !value_optional(*f))) {
      if (const std::string want = read_value(*f, v); !want.empty())
        error = "bad " + std::string(name) + " '" + std::string(v.text) + "' (want " + want + ")";
    }
    if (!error.empty()) {
      err << "error: " << error << "\n";
      return 2;
    }
    a.given |= 1U << (f - kFlags);
    f->set(a, v);
  }
  return std::nullopt;
}

std::optional<unsigned> flag_mode(const Args& a, std::ostream& err) {
  const bool serve = a.has("--serve");
  const bool client = a.has("--client");
  if (a.has("--merge-stats")) {
    if (!serve && !client) return kMerge;
    err << "error: --merge-stats is a local mode (no --serve/--client)\n";
    return std::nullopt;
  }
  if (a.positionals.size() > 1) {
    err << "error: more than one netlist ('" << a.positionals[0] << "', '"
        << a.positionals[1] << "')\n";
    return std::nullopt;
  }
  if (serve) {
    if (!client) return kServe;
    err << "error: --serve and --client are mutually exclusive\n";
    return std::nullopt;
  }
  for (const Flag& f : kFlags) {
    if (!client && (f.modes & ~kClient) == 0 && a.has(name_of(f))) {
      err << "error: " << name_of(f) << " needs --client=<socket>\n";
      return std::nullopt;
    }
  }
  return a.job.op != server::Request::Op::run ? kClientControl : 0U;
}

void note_ignored(const Args& a, Mode mode, std::ostream& err) {
  for (const Flag& f : kFlags) {
    if ((f.modes & mode) == 0 && a.has(name_of(f)))
      err << "note: " << name_of(f) << " does not apply to " << mode_name(mode)
          << " mode (ignored)\n";
  }
}

void print_help(std::ostream& out) {
  out << "usage: usim <netlist.cir> [flags]    single run, sweep, or --lint\n"
         "       usim --merge-stats=<out.jsonl> <shard.jsonl>...\n"
         "       usim --serve=<socket> [flags]\n"
         "       usim --client=<socket> <netlist.cir> [flags]\n"
         "       usim --client=<socket> --stats | --ping | --shutdown\n"
         "\n"
         "A flag's value follows '=' or is the next argument. A flag given in a\n"
         "mode it does not act in is noted on stderr and ignored. README.md\n"
         "describes each flag in full.\n"
         "\n";
  constexpr std::size_t kColumn = 22;
  const std::string indent(kColumn, ' ');
  for (const Flag& f : kFlags) {
    std::string head = std::string("  ") + f.synopsis;
    if (head.size() >= kColumn) {
      out << head << '\n';
      head = indent;
    }
    head.resize(kColumn, ' ');
    for (const std::string_view line : split(f.help, "\n")) {
      out << head << line << '\n';
      head = indent;
    }
    out << indent << "modes:";
    const char* sep = " ";
    for (unsigned m = kSingle; m <= kMerge && f.modes != kAll; m <<= 1)
      if ((f.modes & m) != 0) out << std::exchange(sep, ", ") << mode_name(m);
    if (f.modes == kAll) out << " all";
    if (f.grammar == Grammar::integer) out << "; in [" << f.lo << ", " << f.hi << "]";
    out << '\n';
  }
  out << "\n"
         "exit codes: 0 = all analyses (all sweep points) succeeded\n"
         "            1 = an analysis failed to converge / a sweep point failed /\n"
         "                the server queue was full (busy)\n"
         "            2 = usage, file, netlist, or request errors\n"
         "            3 = stopped by the --timeout deadline (or a cancel request)\n"
         "--lint:     0 = no findings at the threshold, 1 = findings, 2 = parse errors\n";
}

}  // namespace usys::usim
