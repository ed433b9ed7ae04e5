#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

// The benchmark's metric catalogue and result line. The names, units and
// directions here are the ones BENCHMARK.json declares (a unit test holds
// the two equal). Every workload reports every end-to-end metric in an
// untraced run and every per-layer metric in a traced run; a layer a
// workload never calls reports 0.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher" (empty for per-layer metrics)
};

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// The eight paper models, in the paper's order (metric name component).
const std::vector<std::string>& PaperModels();
/// Models whose compiled plans the serving workloads load.
const std::vector<std::string>& PlanModels();
/// Kernel kinds reported as tensor.<Kind>.{ms,gflops}.
const std::vector<std::string>& KernelKindNames();

const std::vector<std::string>& WorkloadNames();

/// What one run measured and checked.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Correctness failures, printed before the result line.
  std::vector<std::string> failures;

  void Fail(const std::string& why);
};

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// The result line: {"correct", "attempted", "failed", "metrics"} with the
/// end-to-end (trace=false) or per-layer (trace=true) metrics. Missing
/// metrics are a benchmark bug and make the line report correct=false.
std::string ResultLine(const Outcome& outcome, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
