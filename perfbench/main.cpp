// dv_perfbench: one run of one benchmark workload.
//
//   dv_perfbench --workload stream|retract|serve --seed N
//                --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a metric table, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (span self times included) with
// --trace 1. Exits 1 when any output check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;

int usage(const char* why) {
  std::cerr << "dv_perfbench: " << why
            << "\nusage: dv_perfbench --workload stream|retract|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void add_trace_metrics(const perfbench::RunConfig& cfg,
                       perfbench::Report& report) {
  const perfbench::TraceSummary t = perfbench::summarize_trace();
  report.layer("trace.coverage", t.coverage("timed"), "ratio");
  report.layer("trace.spans", static_cast<double>(t.spans), "count");
  for (const auto& l : t.layers) {
    report.layer("self." + l.name + "_ms",
                 l.count == 0 ? 0 : l.self_s / static_cast<double>(l.count) * 1e3,
                 "ms");
  }
  // The traced run's own end-to-end figures, so the tracing overhead can
  // be read against an untraced run of the same seed.
  for (const Metric& m : report.end_to_end)
    report.layer("traced." + m.name, m.value, m.unit);
  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    perfbench::write_trace(path);
    std::cerr << "spans written to " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
      } else if (flag == "--out-dir") {
        cfg.out_dir = val;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (cfg.trace) perfbench::enable_tracing();

  perfbench::Report report;
  try {
    if (cfg.workload == "stream") {
      perfbench::run_stream(cfg, report);
    } else if (cfg.workload == "retract") {
      perfbench::run_retract(cfg, report);
    } else if (cfg.workload == "serve") {
      perfbench::run_serve(cfg, report);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "dv_perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (cfg.trace) add_trace_metrics(cfg, report);
  for (const Metric& m : report.end_to_end)
    report.check(m.value > 0, "end-to-end metric " + m.name + " is not > 0");

  for (const Metric& m : report.end_to_end)
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (cfg.trace)
    for (const Metric& m : report.per_layer)
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : cfg.trace ? report.per_layer : report.end_to_end) {
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
