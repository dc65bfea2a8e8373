#include "spice/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/stats.hpp"
#include "spice/devices_nonlinear.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::spice {
namespace {

// Tokenizes one card, keeping parenthesized waveform argument groups intact:
// "V1 in 0 PULSE(0 10 5m) AC 1" -> {V1, in, 0, PULSE(0 10 5m), AC, 1}.
std::vector<std::string> tokenize_card(std::string_view line, int lineno) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : line) {
    if (c == '(') ++depth;
    if (c == ')') {
      --depth;
      if (depth < 0) throw NetlistError(lineno, "unbalanced ')'");
    }
    if ((std::isspace(static_cast<unsigned char>(c)) != 0) && depth == 0) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (depth != 0) throw NetlistError(lineno, "unbalanced '('");
  if (!cur.empty()) out.push_back(cur);
  return out;
}

double parse_num(const std::string& tok, int lineno) {
  const auto v = parse_spice_number(tok);
  if (!v) throw NetlistError(lineno, "expected a number, got '" + tok + "'");
  return *v;
}

/// Parses "PULSE(a b c ...)" / "SIN(...)" / "PWL(...)" / plain number.
std::unique_ptr<Waveform> parse_waveform(const std::string& tok, int lineno) {
  const auto open = tok.find('(');
  if (open == std::string::npos) {
    return std::make_unique<DcWave>(parse_num(tok, lineno));
  }
  const std::string kind = to_lower(trim(std::string_view(tok).substr(0, open)));
  if (tok.back() != ')') throw NetlistError(lineno, "malformed waveform '" + tok + "'");
  const std::string inner(tok.begin() + static_cast<std::ptrdiff_t>(open) + 1,
                          tok.end() - 1);
  std::vector<double> vals;
  for (auto piece : split(inner, " \t,")) vals.push_back(parse_num(std::string(piece), lineno));

  if (kind == "pulse") {
    if (vals.size() < 6) throw NetlistError(lineno, "PULSE needs v1 v2 td tr tf pw [per]");
    return std::make_unique<PulseWave>(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5],
                                       vals.size() > 6 ? vals[6] : 0.0);
  }
  if (kind == "sin") {
    if (vals.size() < 3) throw NetlistError(lineno, "SIN needs vo va freq [td theta]");
    return std::make_unique<SinWave>(vals[0], vals[1], vals[2],
                                     vals.size() > 3 ? vals[3] : 0.0,
                                     vals.size() > 4 ? vals[4] : 0.0);
  }
  if (kind == "pwl") {
    if (vals.size() < 2 || vals.size() % 2 != 0)
      throw NetlistError(lineno, "PWL needs t0 v0 t1 v1 ...");
    std::vector<std::pair<double, double>> pts;
    for (std::size_t i = 0; i + 1 < vals.size(); i += 2) pts.emplace_back(vals[i], vals[i + 1]);
    return std::make_unique<PwlWave>(std::move(pts));
  }
  if (kind == "dc") {
    if (vals.size() != 1) throw NetlistError(lineno, "DC needs one value");
    return std::make_unique<DcWave>(vals[0]);
  }
  throw NetlistError(lineno, "unknown waveform kind '" + kind + "'");
}

void register_builtin_xdevices(NetlistParser& p) {
  p.register_xdevice("MASS", [](XDeviceArgs& a) {
    if (a.pins.size() != 1) throw NetlistError(a.line, "MASS takes 1 pin");
    const int n = a.node(a.pins[0], Nature::mechanical_translation);
    a.circuit->add<Mass>(a.name, n, require_param(a, "m"));
  });
  p.register_xdevice("SPRING", [](XDeviceArgs& a) {
    if (a.pins.size() != 2) throw NetlistError(a.line, "SPRING takes 2 pins");
    const int n1 = a.node(a.pins[0], Nature::mechanical_translation);
    const int n2 = a.node(a.pins[1], Nature::mechanical_translation);
    a.circuit->add<Spring>(a.name, n1, n2, require_param(a, "k"));
  });
  p.register_xdevice("DAMPER", [](XDeviceArgs& a) {
    if (a.pins.size() != 2) throw NetlistError(a.line, "DAMPER takes 2 pins");
    const int n1 = a.node(a.pins[0], Nature::mechanical_translation);
    const int n2 = a.node(a.pins[1], Nature::mechanical_translation);
    a.circuit->add<Damper>(a.name, n1, n2, require_param(a, "alpha"));
  });
  p.register_xdevice("FORCE", [](XDeviceArgs& a) {
    if (a.pins.size() != 1) throw NetlistError(a.line, "FORCE takes 1 pin");
    const int n = a.node(a.pins[0], Nature::mechanical_translation);
    a.circuit->add<ForceSource>(a.name, n, require_param(a, "f"));
  });
  // Nature-agnostic pins (couplers and probes): adopt an existing node's
  // nature when the node was created earlier in the netlist, so e.g.
  // `Xi disp vel INTEG` after mechanical cards keeps `vel` mechanical.
  const auto adopt = [](XDeviceArgs& a, const std::string& pin) {
    if (const auto existing = a.circuit->find_node(pin)) {
      if (*existing == Circuit::kGround) return *existing;
      return a.node(pin, a.circuit->node_nature(*existing));
    }
    return a.node(pin, Nature::electrical);
  };
  p.register_xdevice("XFMR", [adopt](XDeviceArgs& a) {
    if (a.pins.size() != 4) throw NetlistError(a.line, "XFMR takes 4 pins");
    a.circuit->add<IdealTransformer>(a.name, adopt(a, a.pins[0]), adopt(a, a.pins[1]),
                                     adopt(a, a.pins[2]), adopt(a, a.pins[3]),
                                     require_param(a, "n"));
  });
  p.register_xdevice("GYR", [adopt](XDeviceArgs& a) {
    if (a.pins.size() != 4) throw NetlistError(a.line, "GYR takes 4 pins");
    a.circuit->add<Gyrator>(a.name, adopt(a, a.pins[0]), adopt(a, a.pins[1]),
                            adopt(a, a.pins[2]), adopt(a, a.pins[3]),
                            require_param(a, "g"));
  });
  p.register_xdevice("INTEG", [adopt](XDeviceArgs& a) {
    if (a.pins.size() != 2) throw NetlistError(a.line, "INTEG takes 2 pins (out, in)");
    // The probe output node inherits the input's nature (displacement probe
    // of a mechanical node is itself mechanical).
    const int in = adopt(a, a.pins[1]);
    const Nature out_nature =
        in == Circuit::kGround ? Nature::electrical : a.circuit->node_nature(in);
    const int out = a.node(a.pins[0], out_nature);
    a.circuit->add<StateIntegrator>(a.name, out, in, param_or(a, "x0", 0.0));
  });
}

/// Expands .array placeholders in one token for element index `i`: every
/// `{i}`, `{i+N}`, or `{i-N}` group becomes the decimal element number.
std::string expand_array_token(const std::string& tok, int i, int lineno) {
  std::string out;
  out.reserve(tok.size());
  for (std::size_t p = 0; p < tok.size();) {
    if (tok[p] != '{') {
      out += tok[p++];
      continue;
    }
    const auto close = tok.find('}', p);
    if (close == std::string::npos)
      throw NetlistError(lineno, "unbalanced '{' in .array card token '" + tok + "'");
    const std::string expr(trim(tok.substr(p + 1, close - p - 1)));
    long val = i;
    bool ok = !expr.empty() && expr[0] == 'i';
    if (ok && expr.size() > 1) {
      const auto n = parse_bounded(std::string_view(expr).substr(2), 0L, long{kMaxArrayCount});
      if (n && (expr[1] == '+' || expr[1] == '-')) {
        val += expr[1] == '+' ? *n : -*n;
      } else {
        ok = false;
      }
    }
    if (!ok)
      throw NetlistError(lineno, "array placeholder '{" + expr +
                                     "}' must be {i}, {i+N}, or {i-N}");
    out += std::to_string(val);
    p = close + 1;
  }
  return out;
}

}  // namespace

double require_param(const XDeviceArgs& args, const std::string& key) {
  const auto it = args.params.find(key);
  if (it == args.params.end())
    throw NetlistError(args.line, "device '" + args.name + "': missing parameter '" + key + "'");
  return it->second;
}

int require_int(const XDeviceArgs& args, const std::string& key, int lo, int hi) {
  require_param(args, key);
  const auto v = parse_bounded(args.texts.at(key), lo, hi);
  if (!v)
    throw NetlistError(args.line, "device '" + args.name + "': '" + key +
                                      "' must be an integer in [" + std::to_string(lo) +
                                      ", " + std::to_string(hi) + "]");
  return *v;
}

double param_or(const XDeviceArgs& args, const std::string& key, double fallback) {
  const auto it = args.params.find(key);
  return it == args.params.end() ? fallback : it->second;
}

std::string sparam_or(const XDeviceArgs& args, const std::string& key,
                      const std::string& fallback) {
  if (const auto it = args.texts.find(key); it != args.texts.end()) return it->second;
  if (args.options != nullptr) {
    if (const auto it = args.options->find(key); it != args.options->end())
      return it->second;
  }
  return fallback;
}

NetlistParser::NetlistParser() { register_builtin_xdevices(*this); }

void NetlistParser::register_xdevice(const std::string& type, XDeviceFactory factory) {
  xdevices_[to_lower(type)] = std::move(factory);
}

void NetlistParser::register_string_option(const std::string& key,
                                           OptionValidator validate) {
  string_option_keys_[to_lower(key)] = std::move(validate);
}

void NetlistParser::register_string_param(const std::string& key) {
  string_param_keys_.insert(to_lower(key));
}

void NetlistParser::set_option(const std::string& key, const std::string& value) {
  const std::string k = to_lower(key);
  const auto it = string_option_keys_.find(k);
  if (it == string_option_keys_.end())
    throw NetlistError(0, "unknown option '" + k + "'");
  if (it->second && !it->second(value))
    throw NetlistError(0, "bad value '" + value + "' for option '" + k + "'");
  default_options_[k] = value;
}

Netlist NetlistParser::parse(const std::string& text, const SweepPoint* point) {
  Netlist out;
  out.circuit = std::make_unique<Circuit>();
  Circuit& ckt = *out.circuit;

  // Sweep placeholders: "{name}" for each of the point's names.
  std::vector<std::string> keys;
  if (point != nullptr) {
    for (const auto& [name, value] : point->params) keys.push_back("{" + name + "}");
  }
  const auto placeholder_at = [&keys](std::string_view tok) -> int {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (tok == keys[k]) return static_cast<int>(k);
    }
    return -1;
  };
  const auto count_placeholders = [&keys](std::string_view line) {
    int n = 0;
    for (const auto& key : keys) {
      for (auto p = line.find(key); p != std::string_view::npos;
           p = line.find(key, p + key.size()))
        ++n;
    }
    return n;
  };
  // Placeholders a device card holds in value positions: the R/C/L value,
  // a plain V/I DC value, the value of a numeric X-card key=value.
  const auto value_slots = [&](const std::vector<std::string>& toks) {
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(toks[0][0])));
    int n = 0;
    for (std::size_t i = 1; i < toks.size(); ++i) {
      std::string_view v = toks[i];
      if (kind == 'x') {
        const auto eq = v.find('=');
        if (eq == std::string_view::npos ||
            string_param_keys_.count(to_lower(v.substr(0, eq))) != 0U)
          continue;
        v = v.substr(eq + 1);
      } else if (i != 3 || std::string_view("rclvi").find(kind) == std::string_view::npos) {
        continue;
      }
      if (placeholder_at(v) >= 0) ++n;
    }
    return n;
  };
  // A device-parameter value: a placeholder resolves to the point's value
  // and records where it landed; anything else parses as a number.
  const auto value_of = [&](const std::string& tok, const std::string& device,
                            const std::string& key, int lineno) {
    const int k = placeholder_at(tok);
    if (k < 0) return parse_num(tok, lineno);
    const auto& [name, value] = point->params[static_cast<std::size_t>(k)];
    // The text path prints the value and parses it back: only a non-finite
    // value differs (it is rejected), so let that text give the verdict.
    if (!std::isfinite(value)) {
      std::string digits;
      append_g17(digits, value);
      return parse_num(digits, lineno);
    }
    out.placeholders.push_back({device, key, name});
    return value;
  };

  // Pass 1: .node nature declarations (so later cards see the right natures).
  std::map<std::string, Nature> declared;
  {
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const auto t = trim(line);
      if (!t.starts_with(".node") && !t.starts_with(".NODE")) continue;
      if (count_placeholders(t) > 0) continue;  // structural: pass 2 stops there
      const auto toks = tokenize_card(t, lineno);
      if (toks.size() != 3) throw NetlistError(lineno, ".node needs <name> <nature>");
      Nature n{};
      if (!parse_nature(to_lower(toks[2]), n))
        throw NetlistError(lineno, "unknown nature '" + toks[2] + "'");
      declared[toks[1]] = n;
    }
  }

  // Line of the card currently being processed, for diagnostic provenance
  // (device and node records carry the netlist line they first appeared on).
  int current_line = 0;

  auto get_node = [&](const std::string& name, Nature fallback) -> int {
    const auto it = declared.find(name);
    const int id = ckt.add_node(name, it != declared.end() ? it->second : fallback);
    ckt.set_node_line(id, current_line);
    return id;
  };

  StringMap soptions = default_options_;  // string .options in effect

  // One device card (anything that is not a '.' directive). Factored out so
  // .array can re-dispatch expanded card instances through the same path;
  // array instances pass their origin (array head token + element index) so
  // the devices they create can be attributed to a cell by the linter.
  auto process_card = [&](const std::vector<std::string>& toks, int lineno,
                          const std::string& array_name = {}, int array_cell = -1) {
    current_line = lineno;
    const std::size_t dev0 = ckt.devices().size();
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(toks[0][0])));
    const std::string& name = toks[0];
    switch (kind) {
      case 'r': {
        if (toks.size() != 4) throw NetlistError(lineno, "R card: R<id> a b <ohms>");
        ckt.add<Resistor>(name, get_node(toks[1], Nature::electrical),
                          get_node(toks[2], Nature::electrical),
                          value_of(toks[3], name, "r", lineno));
        break;
      }
      case 'c': {
        if (toks.size() != 4) throw NetlistError(lineno, "C card: C<id> a b <farads>");
        ckt.add<Capacitor>(name, get_node(toks[1], Nature::electrical),
                           get_node(toks[2], Nature::electrical),
                           value_of(toks[3], name, "c", lineno));
        break;
      }
      case 'l': {
        if (toks.size() != 4) throw NetlistError(lineno, "L card: L<id> a b <henries>");
        ckt.add<Inductor>(name, get_node(toks[1], Nature::electrical),
                          get_node(toks[2], Nature::electrical),
                          value_of(toks[3], name, "l", lineno));
        break;
      }
      case 'v':
      case 'i': {
        if (toks.size() < 4) throw NetlistError(lineno, "source card: needs n+ n- value");
        const int a = get_node(toks[1], Nature::electrical);
        const int b = get_node(toks[2], Nature::electrical);
        auto wave = toks[3].find('(') == std::string::npos
                        ? std::make_unique<DcWave>(value_of(toks[3], name, "dc", lineno))
                        : parse_waveform(toks[3], lineno);
        double ac_mag = 0.0;
        double ac_ph = 0.0;
        for (std::size_t i = 4; i < toks.size(); ++i) {
          if (iequals(toks[i], "ac")) {
            if (i + 1 >= toks.size()) throw NetlistError(lineno, "AC needs magnitude");
            ac_mag = parse_num(toks[i + 1], lineno);
            if (i + 2 < toks.size()) ac_ph = parse_num(toks[i + 2], lineno);
            break;
          }
        }
        const Nature nat =
            declared.count(toks[1]) != 0U
                ? declared[toks[1]]
                : (declared.count(toks[2]) != 0U ? declared[toks[2]] : Nature::electrical);
        if (kind == 'v') {
          ckt.add<VSource>(name, a, b, std::move(wave), nat, ac_mag, ac_ph);
        } else {
          ckt.add<ISource>(name, a, b, std::move(wave), nat, ac_mag, ac_ph);
        }
        break;
      }
      case 'e': {
        if (toks.size() != 6) throw NetlistError(lineno, "E card: E<id> o+ o- c+ c- <gain>");
        ckt.add<Vcvs>(name, get_node(toks[1], Nature::electrical),
                      get_node(toks[2], Nature::electrical),
                      get_node(toks[3], Nature::electrical),
                      get_node(toks[4], Nature::electrical), parse_num(toks[5], lineno));
        break;
      }
      case 'g': {
        if (toks.size() != 6) throw NetlistError(lineno, "G card: G<id> o+ o- c+ c- <gm>");
        ckt.add<Vccs>(name, get_node(toks[1], Nature::electrical),
                      get_node(toks[2], Nature::electrical),
                      get_node(toks[3], Nature::electrical),
                      get_node(toks[4], Nature::electrical), parse_num(toks[5], lineno));
        break;
      }
      case 'f': {
        if (toks.size() != 5) throw NetlistError(lineno, "F card: F<id> o+ o- <vsrc> <gain>");
        ckt.add<Cccs>(name, get_node(toks[1], Nature::electrical),
                      get_node(toks[2], Nature::electrical), toks[3],
                      parse_num(toks[4], lineno), ckt);
        break;
      }
      case 'h': {
        if (toks.size() != 5) throw NetlistError(lineno, "H card: H<id> o+ o- <vsrc> <r>");
        ckt.add<Ccvs>(name, get_node(toks[1], Nature::electrical),
                      get_node(toks[2], Nature::electrical), toks[3],
                      parse_num(toks[4], lineno), ckt);
        break;
      }
      case 'd': {
        if (toks.size() < 3 || toks.size() > 5)
          throw NetlistError(lineno, "D card: D<id> a k [Is] [n]");
        const double is = toks.size() > 3 ? parse_num(toks[3], lineno) : 1e-14;
        const double em = toks.size() > 4 ? parse_num(toks[4], lineno) : 1.0;
        ckt.add<Diode>(name, get_node(toks[1], Nature::electrical),
                       get_node(toks[2], Nature::electrical), is, em);
        break;
      }
      case 'x': {
        // X<name> pin1 ... pinN TYPE [k=v ...]
        XDeviceArgs args;
        args.name = name;
        args.circuit = &ckt;
        args.line = lineno;
        args.options = &soptions;
        args.node = get_node;
        std::string type;
        for (std::size_t i = 1; i < toks.size(); ++i) {
          const auto eq = toks[i].find('=');
          if (eq != std::string::npos) {
            // Registered string keys (e.g. mode=codegen on HDL cards) pass
            // verbatim; everything else keeps the strict numeric contract,
            // so value typos (er=one, m=1e--9) stay hard errors instead of
            // silently falling through to a factory default.
            const std::string key = to_lower(toks[i].substr(0, eq));
            const std::string val = toks[i].substr(eq + 1);
            if (string_param_keys_.count(key) == 0U)
              args.params[key] = value_of(val, name, key, lineno);
            args.texts[key] = val;
          } else if (xdevices_.count(to_lower(toks[i])) != 0U) {
            type = to_lower(toks[i]);
          } else {
            if (!type.empty())
              throw NetlistError(lineno, "unexpected token '" + toks[i] + "' after type");
            args.pins.push_back(toks[i]);
          }
        }
        if (type.empty()) throw NetlistError(lineno, "X card without a known TYPE");
        xdevices_[type](args);
        break;
      }
      default:
        throw NetlistError(lineno, "unknown card '" + toks[0] + "'");
    }
    // Stamp provenance on every device this card created (X cards may add
    // more than one).
    for (std::size_t di = dev0; di < ckt.devices().size(); ++di) {
      Device& dev = *ckt.devices()[di];
      dev.set_netlist_line(lineno);
      if (!array_name.empty()) dev.set_array_cell(array_name, array_cell);
    }
  };

  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool first_content_line = true;
  TranOptions tran_defaults;  // accumulated from .options cards
  while (std::getline(is, line)) {
    ++lineno;
    // Strip ';' comments, then skip blank / '*' comment lines.
    if (const auto semi = line.find(';'); semi != std::string::npos) line.resize(semi);
    const std::string_view t = trim(line);
    if (t.empty() || t[0] == '*') {
      if (first_content_line && !t.empty()) {
        out.title = std::string(t.substr(1));
        first_content_line = false;
      }
      continue;
    }
    first_content_line = false;
    const auto toks = tokenize_card(t, lineno);
    const std::string head = to_lower(toks[0]);

    // Placeholders outside value positions need text substitution. The
    // parser ignores .param/.measure, so placeholders there change nothing.
    if (!keys.empty()) {
      const int n = count_placeholders(t);
      const bool inert = head == ".param" || head == ".measure";
      if (n > 0 && !inert && (head[0] == '.' || value_slots(toks) != n)) {
        out.structural_placeholders = true;
        return out;
      }
    }

    if (head[0] == '.') {
      if (head == ".node") continue;  // handled in pass 1
      // Statistical sweep cards are extracted from the raw text by the
      // parse_param_dists / parse_measures pre-passes (they drive {name}
      // placeholders this parser never sees substituted); inert here.
      if (head == ".param" || head == ".measure") continue;
      if (head == ".end") break;
      if (head == ".op") {
        AnalysisCard card;
        card.kind = AnalysisCard::Kind::op;
        out.analyses.push_back(card);
        continue;
      }
      if (head == ".tran") {
        if (toks.size() < 3) throw NetlistError(lineno, ".tran needs <dtinit> <tstop>");
        AnalysisCard card;
        card.kind = AnalysisCard::Kind::tran;
        card.tran = tran_defaults;
        card.tran.dt_init = parse_num(toks[1], lineno);
        card.tran.tstop = parse_num(toks[2], lineno);
        if (card.tran.dt_init <= 0.0 || card.tran.tstop <= 0.0)
          throw NetlistError(lineno, ".tran needs positive <dtinit> and <tstop>");
        out.analyses.push_back(card);
        continue;
      }
      if (head == ".options") {
        // .options [method=be|trap|gear] [dtmax=<s>] [reltol=<x>]
        for (std::size_t i = 1; i < toks.size(); ++i) {
          const auto eq = toks[i].find('=');
          if (eq == std::string::npos)
            throw NetlistError(lineno, ".options entries must be key=value");
          const std::string key = to_lower(toks[i].substr(0, eq));
          const std::string val = to_lower(toks[i].substr(eq + 1));
          if (key == "method") {
            if (val == "be") {
              tran_defaults.method = IntegMethod::backward_euler;
            } else if (val == "trap") {
              tran_defaults.method = IntegMethod::trapezoidal;
            } else if (val == "gear") {
              tran_defaults.method = IntegMethod::gear2;
            } else {
              throw NetlistError(lineno, "unknown method '" + val + "' (be|trap|gear)");
            }
          } else if (key == "dtmax") {
            tran_defaults.dt_max = parse_num(val, lineno);
          } else if (key == "reltol") {
            tran_defaults.newton.reltol = parse_num(val, lineno);
          } else if (const auto so = string_option_keys_.find(key);
                     so != string_option_keys_.end()) {
            if (so->second && !so->second(val))
              throw NetlistError(lineno,
                                 "bad value '" + val + "' for option '" + key + "'");
            soptions[key] = val;
          } else {
            throw NetlistError(lineno, "unknown option '" + key + "'");
          }
        }
        continue;
      }
      if (head == ".ac") {
        if (toks.size() < 5) throw NetlistError(lineno, ".ac needs dec|lin <pts> <f0> <f1>");
        AnalysisCard card;
        card.kind = AnalysisCard::Kind::ac;
        const std::string sweep = to_lower(toks[1]);
        if (sweep == "dec") {
          card.ac.sweep = SweepKind::decade;
        } else if (sweep == "lin") {
          card.ac.sweep = SweepKind::linear;
        } else {
          throw NetlistError(lineno, "unknown sweep kind '" + toks[1] + "'");
        }
        card.ac.f_start = parse_num(toks[3], lineno);
        card.ac.f_stop = parse_num(toks[4], lineno);
        if (card.ac.f_start <= 0.0 || card.ac.f_stop < card.ac.f_start)
          throw NetlistError(lineno, ".ac needs 0 < f_start <= f_stop");
        card.ac.points = parse_bounded(toks[2], 1, kMaxAcPoints).value_or(0);
        if (card.ac.points == 0 || !(card.ac.frequency_count() <= kMaxAcPoints))
          throw NetlistError(lineno, ".ac point count must be an integer >= 1 and the sweep at "
                                     "most " + std::to_string(kMaxAcPoints) + " frequencies");
        out.analyses.push_back(card);
        continue;
      }
      if (head == ".array") {
        // .array <count> <device card with {i} / {i+N} / {i-N} placeholders>
        // expands to <count> card instances, element index 0..count-1 — so a
        // thousand-transducer array is one line of netlist.
        if (toks.size() < 3)
          throw NetlistError(lineno, ".array needs <count> <device card...>");
        const auto count = parse_bounded(toks[1], 1, kMaxArrayCount);
        if (!count)
          throw NetlistError(lineno, ".array count must be an integer in [1, 1e7]");
        if (toks[2][0] == '.')
          throw NetlistError(lineno, ".array repeats device cards, not directives");
        std::vector<std::string> inst(toks.size() - 2);
        for (int i = 0; i < *count; ++i) {
          for (std::size_t k = 2; k < toks.size(); ++k)
            inst[k - 2] = expand_array_token(toks[k], i, lineno);
          try {
            // The unexpanded head token (e.g. "XT{i}") names the array for
            // the linter's per-cell connectivity check.
            process_card(inst, lineno, toks[2], i);
          } catch (const CircuitError& e) {
            throw NetlistError(lineno, e.what());
          } catch (const std::invalid_argument& e) {
            throw NetlistError(lineno, "device '" + inst[0] + "': " + e.what());
          }
        }
        continue;
      }
      throw NetlistError(lineno, "unknown directive '" + toks[0] + "'");
    }

    // Circuit-construction conflicts (duplicate device names, node-nature
    // clashes) surface as CircuitError; device-constructor rejections of a
    // parameter value (R <= 0, C <= 0, ...) as std::invalid_argument.
    // Attribute both to the card's line and name instead of letting a bare
    // what() string escape to the caller.
    try {
      process_card(toks, lineno);
    } catch (const CircuitError& e) {
      throw NetlistError(lineno, e.what());
    } catch (const std::invalid_argument& e) {
      throw NetlistError(lineno, "device '" + toks[0] + "': " + e.what());
    }
  }
  return out;
}

namespace {

/// Shared line scanner for the statistical pre-passes: strips ';' comments,
/// skips blanks/'*' comments, tokenizes lines whose head matches `card`
/// (case-insensitive), and hands (tokens, lineno) to `fn`.
void scan_cards(const std::string& text, std::string_view card,
                const std::function<void(const std::vector<std::string>&, int)>& fn) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (const auto semi = line.find(';'); semi != std::string::npos) line.resize(semi);
    const std::string_view t = trim(line);
    if (t.empty() || t[0] == '*' || t[0] != '.') continue;
    const auto space = t.find_first_of(" \t");
    const auto head = to_lower(t.substr(0, space));
    if (head != card) continue;
    fn(tokenize_card(t, lineno), lineno);
  }
}

}  // namespace

std::vector<ParamDist> parse_param_dists(const std::string& text) {
  std::vector<ParamDist> dists;
  scan_cards(text, ".param", [&](const std::vector<std::string>& toks, int lineno) {
    if (toks.size() != 3)
      throw NetlistError(lineno, ".param needs <name> <value | dist=...>");
    const std::string& name = toks[1];
    std::string spec = toks[2];
    // Accept both ".param g dist=normal(1,0.1)" and ".param g normal(1,0.1)".
    if (const auto eq = spec.find('='); eq != std::string::npos) {
      if (to_lower(spec.substr(0, eq)) != "dist")
        throw NetlistError(lineno, ".param value must be <number> or dist=<spec>");
      spec = spec.substr(eq + 1);
    }
    std::string why;
    auto dist = parse_dist_spec(name, spec, &why);
    if (!dist) throw NetlistError(lineno, ".param " + name + ": " + why);
    // Later cards override earlier ones, like repeated .options keys.
    for (auto& existing : dists) {
      if (existing.name == name) {
        existing = std::move(*dist);
        return;
      }
    }
    dists.push_back(std::move(*dist));
  });
  return dists;
}

std::vector<MeasureSpec> parse_measures(const std::string& text) {
  std::vector<MeasureSpec> measures;
  scan_cards(text, ".measure", [&](const std::vector<std::string>& toks, int lineno) {
    if (toks.size() < 4)
      throw NetlistError(lineno,
                         ".measure needs <label> <metric> min=<v> and/or max=<v>");
    MeasureSpec spec;
    spec.label = toks[1];
    // The metric runs up to the first key=value token; an AC metric's name
    // holds a space ("ac dB(fstop):<node>"), so its tokens are rejoined.
    std::size_t i = 2;
    for (; i < toks.size() && toks[i].find('=') == std::string::npos; ++i) {
      if (!spec.metric.empty()) spec.metric += ' ';
      spec.metric += toks[i];
    }
    if (spec.metric.empty() || i == toks.size())
      throw NetlistError(lineno,
                         ".measure needs <label> <metric> min=<v> and/or max=<v>");
    for (; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      if (eq == std::string::npos)
        throw NetlistError(lineno, ".measure bounds must be min=<v> or max=<v>");
      const std::string key = to_lower(toks[i].substr(0, eq));
      const auto v = parse_spice_number(toks[i].substr(eq + 1));
      if (!v)
        throw NetlistError(lineno, ".measure " + spec.label + ": bad number in '" +
                                       toks[i] + "'");
      if (key == "min") {
        spec.has_lo = true;
        spec.lo = *v;
      } else if (key == "max") {
        spec.has_hi = true;
        spec.hi = *v;
      } else {
        throw NetlistError(lineno, ".measure bound must be min or max, got '" + key + "'");
      }
    }
    if (spec.has_lo && spec.has_hi && spec.hi < spec.lo)
      throw NetlistError(lineno, ".measure " + spec.label + ": max < min");
    measures.push_back(std::move(spec));
  });
  return measures;
}

}  // namespace usys::spice
