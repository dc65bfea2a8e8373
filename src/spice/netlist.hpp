// SPICE-style netlist front end.
//
// The paper instantiates transducer macro-models "in a netlist with
// electronics"; this parser provides that workflow. Grammar (one card per
// line, '*' or ';' comments, case-insensitive keywords, SPICE engineering
// suffixes):
//
//   .node <name> <nature>            declare a non-electrical node
//   V<id> n+ n- <dc> | PULSE(...) | SIN(...) | PWL(...)  [AC <mag> [<phase>]]
//   I<id> n+ n- <same waveforms>
//   R<id> a b <ohms>
//   C<id> a b <farads>
//   L<id> a b <henries>
//   D<id> a k [Is] [n]               junction diode
//   E<id> o+ o- c+ c- <gain>         VCVS
//   G<id> o+ o- c+ c- <gm>           VCCS
//   F<id> o+ o- <vsrc> <gain>        CCCS
//   H<id> o+ o- <vsrc> <r>           CCVS
//   X<id> <pins...> <TYPE> [k=v ...] extension devices (registered factories):
//       built-in types: MASS m=<kg>; SPRING k=<N/m>; DAMPER alpha=<Ns/m>;
//       FORCE f=<N>|waveform; XFMR n=<ratio>; GYR g=<S>; INTEG [x0=<v>]
//       (the transducers of the paper are registered by usys::core)
//   .array <count> <device card>     repeat construct: expands the card
//       <count> times with {i}, {i+N}, {i-N} placeholders replaced by the
//       element index (0-based) in names, node names, and parameters, e.g.
//         .array 1000 XT{i} drive 0 v{i} 0 ETRANSV a=1e-4 d=2e-6
//         .array 999  XK{i} v{i} v{i+1} SPRING k=2.5
//       (usys::core also registers a TRANSARRAY macro card that emits a
//       whole transducer/mass/spring/damper array from a single X card)
//   .options [method=be|trap|gear] [dtmax=<s>] [reltol=<x>] [<strkey>=<val>]
//       string-valued keys must be registered (register_string_option);
//       usys::core registers `hdl=ast|bytecode|codegen` — the execution mode
//       HDL X cards after this point instantiate with (see docs/hdl.md)
//   .op | .tran <dtinit> <tstop> | .ac dec|lin <pts> <f0> <f1>
//   .end
//
// X-card parameters whose key is registered as string-valued
// (register_string_param; usys::core registers `mode` for the HDL cards)
// are passed to the factory verbatim (XDeviceArgs::texts). Every other
// parameter value must parse as a SPICE number — typos stay hard errors.
// SPICE numbers are decimal, read by std::from_chars (parse_spice_number):
// hex such as `0x10`, `inf`/`nan` and values outside double's range are
// errors, not 16, infinity or 0.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/stats.hpp"
#include "spice/waveform.hpp"

namespace usys::spice {

/// The most cells an `.array` card or a TRANSARRAY X card builds.
inline constexpr int kMaxArrayCount = 10'000'000;

class NetlistError : public std::runtime_error {
 public:
  NetlistError(int line, const std::string& what)
      : std::runtime_error("netlist line " + std::to_string(line) + ": " + what),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// A requested analysis card.
struct AnalysisCard {
  enum class Kind { op, tran, ac } kind = Kind::op;
  TranOptions tran;
  AcOptions ac;
};

/// Where a sweep value placeholder landed (parse() with a point): the
/// device the card created and the set_param key its value feeds.
struct PlaceholderSite {
  std::string device;  ///< card name ("R1", "XT")
  std::string param;   ///< lower-case parameter key ("r", "dc", "d")
  std::string name;    ///< placeholder name ("gap" for `{gap}`)
};

/// Parse result: the built circuit plus the requested analyses.
struct Netlist {
  std::unique_ptr<Circuit> circuit;
  std::vector<AnalysisCard> analyses;
  std::string title;
  /// Every value placeholder parse() resolved, in card order.
  std::vector<PlaceholderSite> placeholders;
  /// A placeholder sits outside a value position (inside a longer token, a
  /// node or device name, a waveform, a directive, `.array`): only text
  /// substitution can build this template. parse() stops at that card, so
  /// the rest of the Netlist is incomplete and must not be used.
  bool structural_placeholders = false;
};

/// Key/value parameters of an X card (keys lowercased).
using ParamMap = std::map<std::string, double>;

/// String-valued settings: registered `.options` keys plus non-numeric X-card
/// parameters (keys lowercased in both cases).
using StringMap = std::map<std::string, std::string>;

/// Context handed to X-device factories.
struct XDeviceArgs {
  std::string name;                 ///< full device name ("XT1")
  std::vector<std::string> pins;    ///< pin node *names* in card order
  ParamMap params;                  ///< k=v values, keys not registered as strings
  StringMap texts;                  ///< every k=v value as written
  Circuit* circuit = nullptr;
  int line = 0;
  /// String `.options` in effect at this card (registered keys only; parser
  /// defaults merged in). Never null during factory dispatch.
  const StringMap* options = nullptr;
  /// Resolves a pin name to a node id, creating it with `nature` if new.
  std::function<int(const std::string&, Nature)> node;
};

/// Factory signature: construct & add the device to args.circuit.
using XDeviceFactory = std::function<void(XDeviceArgs&)>;

class NetlistParser {
 public:
  NetlistParser();

  /// Registers an X-card TYPE (uppercased). Later registrations override.
  void register_xdevice(const std::string& type, XDeviceFactory factory);

  /// Declares a string-valued `.options` key (unregistered keys still throw).
  /// `validate` (optional) vets the value at parse time.
  using OptionValidator = std::function<bool(const std::string&)>;
  void register_string_option(const std::string& key, OptionValidator validate = {});

  /// Declares a string-valued X-card parameter key. Unregistered keys keep
  /// the strict numeric contract (malformed values are parse errors), so a
  /// typo like `er=one` can never silently fall through to a default.
  void register_string_param(const std::string& key);

  /// Presets a string option before parsing (e.g. usim --hdl-mode). A later
  /// `.options` card with the same key overrides it. The key must be
  /// registered; the value goes through its validator.
  void set_option(const std::string& key, const std::string& value);

  /// Parses netlist text; throws NetlistError with a line number on failure.
  ///
  /// With `point`, a token that is exactly `{name}` for one of the point's
  /// names is a sweep placeholder. In a value position — the R/C/L value, a
  /// V/I DC value, an X-card `key={name}` — it resolves to the point's
  /// value (the same double that text substitution, 17 significant digits
  /// through `std::to_chars`, byte-identical to printf's `%g` at precision
  /// 17, would parse back to; a non-finite value fails as its text would) and is recorded in
  /// Netlist::placeholders. Any other occurrence sets
  /// Netlist::structural_placeholders.
  Netlist parse(const std::string& text, const SweepPoint* point = nullptr);

 private:
  std::map<std::string, XDeviceFactory> xdevices_;
  std::map<std::string, OptionValidator> string_option_keys_;
  std::set<std::string> string_param_keys_;
  StringMap default_options_;
};

/// Helper for factories/tests: fetch a required parameter.
double require_param(const XDeviceArgs& args, const std::string& key);
/// An integer parameter in [lo, hi], read from its text by parse_bounded:
/// 2.5, 1e3, 1k or a sweep placeholder is a NetlistError naming the line,
/// not a truncated count.
int require_int(const XDeviceArgs& args, const std::string& key, int lo, int hi);
/// Fetch with default.
double param_or(const XDeviceArgs& args, const std::string& key, double fallback);
/// String parameter with default: the card's own `key=value` wins, then the
/// `.options` value in effect, then `fallback`.
std::string sparam_or(const XDeviceArgs& args, const std::string& key,
                      const std::string& fallback);

/// Statistical-sweep pre-passes (docs/sweeps.md). Both scan the RAW netlist
/// text — before {name} parameter substitution, which is why they cannot
/// live inside parse() — and throw NetlistError on malformed cards;
/// parse() itself treats the cards as inert.
///
/// `.param <name> <value>` or `.param <name> dist=normal(mu,sigma) |
/// uniform(lo,hi) | corner(v1,v2,...)`; a later card overrides an earlier
/// one with the same name.
std::vector<ParamDist> parse_param_dists(const std::string& text);

/// `.measure <label> <metric> [min=<v>] [max=<v>]` yield bounds (at least
/// one bound required).
std::vector<MeasureSpec> parse_measures(const std::string& text);

}  // namespace usys::spice
