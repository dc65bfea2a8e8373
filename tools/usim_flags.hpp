// usim's command line as one table (usim_flags.cpp): each flag is declared
// once with its spelling, its value grammar, the modes it acts in, its
// --help text and its setter. The parse loop, --help and the mode check all
// read that table, and the tests parse argv through it too.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.hpp"
#include "server/server.hpp"
#include "spice/sweep.hpp"

namespace usys::usim {

/// The modes one invocation runs in. A flag lists the ones it acts in; one
/// given in any other mode is noted on stderr and ignored.
enum Mode : unsigned {
  kSingle = 1U << 0,         ///< a netlist's analysis cards, once
  kSweep = 1U << 1,          ///< --sweep, --mc or a netlist .param dist
  kLint = 1U << 2,           ///< --lint
  kServe = 1U << 3,          ///< --serve
  kClientJob = 1U << 4,      ///< --client with a netlist
  kClientControl = 1U << 5,  ///< --client with --stats, --ping or --shutdown
  kMerge = 1U << 6,          ///< --merge-stats
};

/// The most worker threads --threads and --serve-workers accept.
inline constexpr int kMaxThreads = 256;

/// What the flags set; defaults are the values of an absent flag.
struct Args {
  std::vector<std::string> positionals;  ///< the netlist, or --merge-stats inputs
  /// The job's own fields, which a --client run sends as they are: sweep
  /// specs, mc, seed, --set specs, hdl mode, timeout, no-cache, control op.
  server::Request job;
  std::string csv, stats_out, merge_out, client_path;
  int threads = 0;  ///< 0 = one sweep worker per hardware thread
  bool lint = false, lint_warn = false, lint_json = false;
  bool quiet = false;  ///< main sets the log level: parse_args has no side effects
  spice::SweepOptions sweep;
  server::ServerOptions serve;
  std::uint32_t given = 0;  ///< bit i: the table's flag i was given

  bool has(std::string_view flag) const;
};

/// Parses argv[1..argc) into `a`. nullopt means run; otherwise it is the
/// exit code: 0 after --help printed to `out`, 2 after a usage error line
/// on `err`. Reads no file and starts no thread.
std::optional<int> parse_args(int argc, const char* const* argv, Args& a, std::ostream& out,
                              std::ostream& err);

/// The mode the flags fix on their own: kMerge, kServe or kClientControl,
/// or 0 when the netlist decides. A conflict prints one error line on `err`
/// and returns nullopt (exit 2): --merge-stats with --serve or --client,
/// more than one netlist, --serve with --client, or a flag that acts only
/// on a server connection without --client.
std::optional<unsigned> flag_mode(const Args& a, std::ostream& err);

/// One note on `err` for each flag given that does not act in `mode`.
void note_ignored(const Args& a, Mode mode, std::ostream& err);

/// The --help text: synopsis, one entry per flag, exit codes.
void print_help(std::ostream& out);

}  // namespace usys::usim
