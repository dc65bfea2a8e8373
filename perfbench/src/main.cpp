// perfbench_e2e — runs one workload of the usys end-to-end benchmark and
// writes its raw samples; perfbench/run.py builds this program, runs it and
// turns the samples into metrics.
//
//   perfbench_e2e --workload fig3_tran|array_1k|mc_sweep|server_mix
//                 --seed N --seconds S --trace 0|1 --out DIR [--source ID]
//
// Writes DIR/raw-<workload>-s<seed>-t<trace>.json (samples, counts,
// provenance) and, with --trace 1, DIR/trace-<workload>-s<seed>.json
// (Chrome trace events). Exit codes: 0 ran (output checks are in the
// record), 2 usage error, 3 output files could not be written.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "harness.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

void append_key(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

void append_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    usys::json_append_double(out, values[i]);
  }
  out += ']';
}

std::string provenance_json(const RunOptions& opts, const RunRecord& rec) {
  std::string out = "{";
  const auto str = [&out](const char* key, const std::string& v, bool last = false) {
    append_key(out, key);
    usys::json_append_escaped(out, v);
    if (!last) out += ',';
  };
  str("workload", opts.workload);
  str("source", opts.source_id);
  str("compiler", PERFBENCH_COMPILER);
  str("build_type", PERFBENCH_BUILD_TYPE);
  str("seed", std::to_string(opts.seed));
  out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"threads\":" + std::to_string(rec.threads) +
         ",\"clients\":" + std::to_string(rec.clients) + ",\"seconds\":";
  usys::json_append_double(out, opts.seconds);
  out += ",\"trace\":";
  out += opts.trace ? "1}" : "0}";
  return out;
}

std::string record_json(const RunOptions& opts, const RunRecord& rec) {
  std::string out = "{\"provenance\":" + provenance_json(opts, rec);
  out += ",\"attempted\":" + std::to_string(rec.attempted);
  out += ",\"failed\":" + std::to_string(rec.failed);
  out += ",\"failure_notes\":[";
  for (std::size_t i = 0; i < rec.failure_notes.size(); ++i) {
    if (i) out += ',';
    usys::json_append_escaped(out, rec.failure_notes[i]);
  }
  out += "],";
  append_key(out, "setup_s");
  append_array(out, rec.setup_s);
  out += ',';
  append_key(out, "job_ms");
  append_array(out, rec.job_ms);
  out += ',';
  append_key(out, "traced_job_ms");
  append_array(out, rec.traced_job_ms);
  out += ",\"wall_s\":";
  usys::json_append_double(out, rec.wall_s);
  out += ',';
  append_key(out, "job_cpu_ms");
  append_array(out, rec.job_cpu_ms);
  out += ",\"peak_rss_mb\":";
  usys::json_append_double(out, peak_rss_mb());
  out += ",\"values\":{";
  for (std::size_t i = 0; i < rec.values.size(); ++i) {
    if (i) out += ',';
    usys::json_append_escaped(out, rec.values[i].first);
    out += ':';
    usys::json_append_double(out, rec.values[i].second);
  }
  out += "}}\n";
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload W --seed N --seconds S "
               "--trace 0|1 --out DIR [--source ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--out") {
      opts.out_dir = value;
    } else if (key == "--source") {
      opts.source_id = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (opts.out_dir.empty() || !(opts.seconds > 0.0)) return usage("need --out and --seconds > 0");

  void (*workload)(const RunOptions&, RunRecord&) = nullptr;
  if (opts.workload == "fig3_tran") workload = run_fig3_tran;
  if (opts.workload == "array_1k") workload = run_array_1k;
  if (opts.workload == "mc_sweep") workload = run_mc_sweep;
  if (opts.workload == "server_mix") workload = run_server_mix;
  if (workload == nullptr) return usage(("unknown workload '" + opts.workload + "'").c_str());

  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  RunRecord rec;
  try {
    workload(opts, rec);
  } catch (const std::exception& e) {
    rec.op(false, std::string("workload threw: ") + e.what());
  }
  set_tracing(false);

  const std::string stem = opts.workload + "-s" + std::to_string(opts.seed);
  std::ofstream raw(opts.out_dir + "/raw-" + stem + "-t" + (opts.trace ? "1" : "0") + ".json",
                    std::ios::binary | std::ios::trunc);
  raw << record_json(opts, rec);
  if (!raw) return 3;
  if (opts.trace &&
      !write_chrome_trace(opts.out_dir + "/trace-" + stem + ".json", provenance_json(opts, rec)))
    return 3;
  return 0;
}
