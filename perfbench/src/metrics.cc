#include "metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"ok_share", "share", "higher"},
      {"throughput_per_cpu_s", "1/cpu-s", "higher"},
      {"answer_mae", "mph", "lower"},
  };
  return kMetrics;
}

const std::vector<std::string>& PaperModels() {
  static const std::vector<std::string> kModels = {
      "STGCN",         "DCRNN",   "ASTGCN", "ST-MetaNet",
      "Graph-WaveNet", "STG2Seq", "STSGCN", "GMAN"};
  return kModels;
}

const std::vector<std::string>& PlanModels() {
  static const std::vector<std::string> kModels = {"Graph-WaveNet", "DCRNN",
                                                   "STSGCN", "GMAN"};
  return kModels;
}

const std::vector<std::string>& KernelKindNames() {
  static const std::vector<std::string> kKinds = {
      "MatMul", "MatMulBwd", "Conv2d",  "Conv2dBwd", "SpMM",
      "SpMMBwd", "Unary",    "UnaryBwd", "Binary",   "BinaryBwd",
      "Softmax", "Reduce",   "DataMovement", "FusedEpilogue"};
  return kKinds;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"train_sweep", "serve_mixed",
                                                  "serve_hot", "city_scale"};
  return kNames;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m;
    m.push_back({"data.build_s", "s", "lower"});
    for (const std::string& model : PaperModels()) {
      m.push_back({"models." + model + ".train_ms_per_batch", "ms", "lower"});
      m.push_back({"models." + model + ".eval_ms_per_window", "ms", "lower"});
    }
    m.push_back({"eval.windows_per_s", "1/s", "higher"});
    for (const std::string& kind : KernelKindNames()) {
      m.push_back({"tensor." + kind + ".ms", "ms", "lower"});
      m.push_back({"tensor." + kind + ".gflops", "GFLOP/s", "higher"});
    }
    m.push_back({"tensor.pool.hit_ratio", "ratio", "higher"});
    m.push_back({"tensor.pool.misses", "count", "lower"});
    m.push_back({"optim.adam_ms", "ms", "lower"});
    m.push_back({"exec.op_share", "ratio", "higher"});
    for (const std::string& model : PlanModels()) {
      m.push_back({"plan." + model + ".compile_s", "s", "lower"});
      m.push_back({"plan." + model + ".replay_ms_per_window", "ms", "lower"});
      m.push_back({"plan." + model + ".steps", "count", "lower"});
      m.push_back({"plan." + model + ".fused_steps", "count", "higher"});
    }
    m.push_back({"serve.latency_p50_ms", "ms", "lower"});
    m.push_back({"serve.latency_p99_ms", "ms", "lower"});
    m.push_back({"serve.queue_wait_p50_ms", "ms", "lower"});
    m.push_back({"serve.queue_wait_p99_ms", "ms", "lower"});
    m.push_back({"serve.batch_compute_p50_ms", "ms", "lower"});
    m.push_back({"serve.mean_batch_size", "count", "higher"});
    m.push_back({"serve.submit_us_p99", "us", "lower"});
    m.push_back({"serve.tier0", "count", "higher"});
    m.push_back({"serve.tier1", "count", "higher"});
    m.push_back({"serve.tier2", "count", "lower"});
    m.push_back({"serve.degraded_share", "share", "lower"});
    m.push_back({"serve.cache.hits", "count", "higher"});
    m.push_back({"serve.cache.misses", "count", "lower"});
    m.push_back({"serve.cache.insertions", "count", "higher"});
    for (const char* reason : {"queue_full", "aged_out", "closed"}) {
      m.push_back({std::string("serve.shed.") + reason, "count", "lower"});
    }
    m.push_back({"serve.generator_lag_p99_ms", "ms", "lower"});
    return m;
  }();
  return kMetrics;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string ResultLine(const Outcome& outcome, bool trace) {
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = outcome.metrics.find(def.name);
    double value = 0.0;
    if (it == outcome.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   def.name.c_str());
      complete = false;
    } else {
      value = it->second;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name.c_str(), value,
                  def.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                outcome.correct && complete ? "true" : "false",
                static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
