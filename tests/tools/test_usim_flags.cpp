// usim's flag table (tools/usim_flags.hpp), driven exactly as main() drives
// it: every numeric flag and --shard against hex, exponent, nan/inf,
// overflow, trailing junk, non-numbers and both bounds, the mode check's
// conflicts and notes, and the --help listing.
#include <gtest/gtest.h>

#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "usim_flags.hpp"

namespace usys::usim {
namespace {

struct Parsed {
  std::optional<int> rc;
  Args args;
  std::string out;
  std::string err;
};

/// parse_args over `usim no-such.cir <flags...>`: the netlist does not exist,
/// so an error that names a flag was raised before anything read it.
Parsed parse(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"usim", "no-such.cir"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  Parsed p;
  std::ostringstream out;
  std::ostringstream err;
  p.rc = parse_args(static_cast<int>(argv.size()), argv.data(), p.args, out, err);
  p.out = out.str();
  p.err = err.str();
  return p;
}

struct NumericFlag {
  std::string name;
  std::string want;
  std::vector<std::string> good;
  std::vector<std::string> bad;
};

TEST(UsimFlags, EveryNumericFlagRejectsWhatItsGrammarDoesNot) {
  // Not a decimal integer: hex, an exponent, nan/inf, overflow, trailing
  // junk, no number at all, whitespace, an explicit '+', a fraction, a sign.
  const std::vector<std::string> junk = {"0x10", "1e3", "nan", "inf", "-inf", "1e999",
                                         "99999999999999999999999", "2x", "abc", "",
                                         " 5", "+5", "5.0", "-1"};
  const auto integer = [&](const char* name, const char* lo, const char* hi,
                           std::vector<std::string> out_of_range) {
    out_of_range.insert(out_of_range.end(), junk.begin(), junk.end());
    return NumericFlag{name, std::string("an integer in [") + lo + ", " + hi + "]", {lo, hi},
                       out_of_range};
  };
  const std::vector<NumericFlag> flags = {
      integer("--mc", "1", "10000000", {"0", "10000001"}),
      integer("--threads", "0", "256", {"257", "100000"}),
      integer("--retries", "0", "100", {"101"}),
      integer("--serve-workers", "1", "256", {"0", "257"}),
      integer("--serve-queue", "1", "100000", {"0", "100001"}),
      integer("--serve-cache", "1", "10000", {"0", "10001"}),
      integer("--seed", "0", "18446744073709551615", {"18446744073709551616"}),
      {"--timeout", "a finite number of milliseconds >= 0", {"0", "16", "0.5", "1e3", "1e300"},
       {"0x10", "nan", "inf", "-inf", "1e999", "1e309", "2x", "abc", "", " 5", "+5", "-1",
        "10ms"}},
      {"--shard", "k/n with 1 <= k <= n", {"1/1", "1/2", "2/2"},
       {"0/2", "3/2", "1/0", "2/1", "1/-2", "x1/2", "1/2x", "0x1/2", "99999999999/2", "1",
        "1/", "/2", "1e0/2", "", "+1/2"}},
  };
  for (const NumericFlag& f : flags) {
    for (const std::string& v : f.bad) {
      for (const bool joined : {true, false}) {
        SCOPED_TRACE(f.name + (joined ? "=" : " ") + v);
        const Parsed p = joined ? parse({f.name + "=" + v}) : parse({f.name, v});
        EXPECT_EQ(p.rc, 2);
        EXPECT_EQ(p.err, "error: bad " + f.name + " '" + v + "' (want " + f.want + ")\n");
      }
    }
    for (const std::string& v : f.good) {
      SCOPED_TRACE(f.name + "=" + v);
      const Parsed p = parse({f.name + "=" + v});
      EXPECT_EQ(p.rc, std::nullopt) << p.err;
      EXPECT_TRUE(p.args.has(f.name));
    }
  }
}

TEST(UsimFlags, AcceptedValuesReachTheirFields) {
  const Parsed p = parse({"--mc=7", "--seed=18446744073709551615", "--threads=256",
                          "--retries", "3", "--timeout=2.5", "--shard=2/3",
                          "--serve-workers=4", "--serve-queue=9", "--serve-cache=5",
                          "--sweep", "g=1,2", "--sweep=v=normal(1,0.1)", "--set", "R1.r=5",
                          "--lint=warn", "--lint-format=json", "--hdl-mode=ast", "--quiet"});
  ASSERT_EQ(p.rc, std::nullopt) << p.err;
  const Args& a = p.args;
  EXPECT_EQ(a.positionals, std::vector<std::string>{"no-such.cir"});
  EXPECT_EQ(a.job.mc, 7);
  EXPECT_EQ(a.job.seed, "18446744073709551615");
  EXPECT_EQ(a.threads, 256);
  EXPECT_EQ(a.sweep.retries, 3);
  EXPECT_EQ(a.job.timeout_ms, 2.5);
  EXPECT_EQ(a.sweep.shard_index, 2);
  EXPECT_EQ(a.sweep.shard_count, 3);
  EXPECT_EQ(a.serve.workers, 4);
  EXPECT_EQ(a.serve.queue_capacity, 9);
  EXPECT_EQ(a.serve.engine_cache_capacity, 5);
  EXPECT_EQ(a.job.sweep_specs, (std::vector<std::string>{"g=1,2", "v=normal(1,0.1)"}));
  EXPECT_EQ(a.job.set_specs, std::vector<std::string>{"R1.r=5"});
  EXPECT_TRUE(a.lint && a.lint_warn && a.lint_json && a.quiet);
  EXPECT_EQ(a.job.hdl_mode, "ast");
}

TEST(UsimFlags, ShapeErrors) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--bogus"}, "error: unknown flag '--bogus'\n"},
      {{"--mc"}, "error: --mc needs a value\n"},
      {{"--ping=1"}, "error: --ping takes no value\n"},
      {{"--lint=fatal"}, "error: bad --lint 'fatal' (want error|warn)\n"},
      {{"--lint-format=xml"}, "error: bad --lint-format 'xml' (want text|json)\n"},
      {{"--hdl-mode=vm"}, "error: bad --hdl-mode 'vm' (want ast|bytecode|codegen)\n"},
      {{"--csv="}, "error: bad --csv '' (want a non-empty value)\n"},
  };
  for (const auto& [flags, err] : cases) {
    SCOPED_TRACE(flags[0]);
    const Parsed p = parse(flags);
    EXPECT_EQ(p.rc, 2);
    EXPECT_EQ(p.err, err);
  }
  // A bare --lint takes no value: the next argument stays a positional.
  const Parsed lint = parse({"--lint", "other.cir"});
  EXPECT_EQ(lint.rc, std::nullopt);
  EXPECT_EQ(lint.args.positionals.size(), 2u);
  // --help wins over anything else on the line.
  const Parsed help = parse({"--mc=abc", "-h"});
  EXPECT_EQ(help.rc, 0);
  EXPECT_NE(help.out.find("--mc=N"), std::string::npos);
  EXPECT_TRUE(help.err.empty());
}

TEST(UsimFlags, ModeConflictsExitTwo) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--merge-stats=o.jsonl", "--serve=s"},
       "error: --merge-stats is a local mode (no --serve/--client)\n"},
      {{"--merge-stats=o.jsonl", "--client=s"},
       "error: --merge-stats is a local mode (no --serve/--client)\n"},
      {{"--serve=s", "--client=s"}, "error: --serve and --client are mutually exclusive\n"},
      {{"--stats"}, "error: --stats needs --client=<socket>\n"},
      {{"--shutdown"}, "error: --shutdown needs --client=<socket>\n"},
      {{"--no-cache"}, "error: --no-cache needs --client=<socket>\n"},
      {{"b.cir"}, "error: more than one netlist ('no-such.cir', 'b.cir')\n"},
  };
  for (const auto& [flags, err] : cases) {
    SCOPED_TRACE(flags[0]);
    const Parsed p = parse(flags);
    ASSERT_EQ(p.rc, std::nullopt) << p.err;
    std::ostringstream os;
    EXPECT_EQ(flag_mode(p.args, os), std::nullopt);
    EXPECT_EQ(os.str(), err);
  }
  const std::vector<std::pair<std::vector<std::string>, unsigned>> fixed = {
      {{"--merge-stats=o.jsonl", "b.jsonl"}, kMerge},
      {{"--serve=s", "--stats"}, kServe},
      {{"--client=s", "--ping"}, kClientControl},
      {{"--client=s"}, 0U},
      {{"--threads=2"}, 0U},
  };
  for (const auto& [flags, mode] : fixed) {
    SCOPED_TRACE(flags[0]);
    const Parsed p = parse(flags);
    std::ostringstream os;
    EXPECT_EQ(flag_mode(p.args, os), mode);
    EXPECT_TRUE(os.str().empty()) << os.str();
  }
}

TEST(UsimFlags, FlagsOutsideTheirModesAreNoted) {
  const Parsed p = parse({"--client=s", "--threads=4", "--retries=2", "--csv=x.csv",
                          "--timeout=5", "--mc=3"});
  ASSERT_EQ(p.rc, std::nullopt) << p.err;
  std::ostringstream os;
  note_ignored(p.args, kClientJob, os);
  EXPECT_EQ(os.str(),
            "note: --csv does not apply to client mode (ignored)\n"
            "note: --threads does not apply to client mode (ignored)\n"
            "note: --retries does not apply to client mode (ignored)\n");
  std::ostringstream single;
  note_ignored(parse({"--set", "R1.r=2", "--shard=1/2", "--quiet"}).args, kSingle, single);
  EXPECT_EQ(single.str(), "note: --shard does not apply to single-run mode (ignored)\n");
  std::ostringstream sweep;
  note_ignored(parse({"--set", "R1.r=2", "--lint-format=json"}).args, kSweep, sweep);
  EXPECT_EQ(sweep.str(),
            "note: --lint-format does not apply to sweep mode (ignored)\n"
            "note: --set does not apply to sweep mode (ignored)\n");
}

TEST(UsimFlags, HelpListsEveryFlagOnce) {
  std::ostringstream os;
  print_help(os);
  const std::string help = os.str();
  // The pattern tools/check_docs.py reads the flag list with.
  const std::regex flag(R"((?:^|[^\w/-])(--[A-Za-z][A-Za-z_-]*))");
  std::set<std::string> flags;
  for (auto it = std::sregex_iterator(help.begin(), help.end(), flag);
       it != std::sregex_iterator(); ++it)
    flags.insert((*it)[1]);
  EXPECT_EQ(flags.size(), 27u);
  EXPECT_NE(help.find("--threads=N"), std::string::npos);
  EXPECT_NE(help.find("modes: sweep; in [0, " + std::to_string(kMaxThreads) + "]"),
            std::string::npos);
  EXPECT_GE(kMaxThreads, 64);  // docs/sweeps.md runs --threads=64
}

}  // namespace
}  // namespace usys::usim
