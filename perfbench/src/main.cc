// perfbench: runs one benchmark workload through the library's public
// functions and prints its metrics. Usually started through run.py, which
// builds this binary and adds the host fingerprint:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 1 --spans <path>
//
// The last line of standard output is the result object. With --trace 1 the
// run records spans around every library call, turns on the kernel
// profiler, prints the per-layer table and writes the spans to --spans.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_sweep|serve_mixed|serve_hot|"
               "city_scale> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>, required with --trace 1]\n");
  return 2;
}

void PrintE2e(const perfbench::Outcome& outcome) {
  // Every run prints its end-to-end numbers on this line, so a traced run
  // can be set against an untraced one (the tracing overhead).
  std::string line = "e2e:";
  for (const perfbench::MetricDef& def : perfbench::EndToEndMetrics()) {
    auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end()) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), " %s=%.9g", def.name.c_str(), it->second);
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string spans_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      (config.trace && spans_path.empty())) {
    return Usage();
  }

  perfbench::SpanRecorder spans(config.trace);
  perfbench::Outcome outcome;
  if (config.workload == "train_sweep") {
    outcome = perfbench::RunTrainSweep(config, &spans);
  } else if (config.workload == "serve_mixed") {
    outcome = perfbench::RunServeMixed(config, &spans);
  } else if (config.workload == "serve_hot") {
    outcome = perfbench::RunServeHot(config, &spans);
  } else if (config.workload == "city_scale") {
    outcome = perfbench::RunCityScale(config, &spans);
  } else {
    return Usage();
  }

  PrintE2e(outcome);
  if (config.trace) {
    std::printf("%-40s %8s %12s %12s\n", "span (layer call)", "count", "total ms",
                "self ms");
    for (const perfbench::LayerTime& row : spans.LayerTimes()) {
      std::printf("%-40s %8lld %12.3f %12.3f\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.total_s * 1e3,
                  row.self_s * 1e3);
    }
    const std::filesystem::path parent = std::filesystem::path(spans_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    if (spans.Dump(spans_path)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  spans_path.c_str());
    } else {
      outcome.Fail("cannot write spans to " + spans_path);
    }
  }
  for (const std::string& why : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  const std::string line = perfbench::ResultLine(outcome, config.trace);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return line.find("\"correct\": true") != std::string::npos ? 0 : 1;
}
