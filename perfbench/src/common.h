#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Pieces shared by the workloads: run configuration, datasets, repeated
// set-up, kernel-profile deltas, masked accuracy and the end-to-end metrics.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "src/data/dataset.h"
#include "src/exec/execution_context.h"
#include "src/tensor/tensor.h"

namespace perfbench {

namespace tb = trafficbench;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up runs at least kSetupRepeats times per run, and more while the
/// runs add up to less than kSetupMinSeconds (so a set-up of milliseconds is
/// still timed steadily); setup_s is the median of their CPU times. Set-up
/// runs on one thread, so that is its wall time less what the host steals.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupMinSeconds = 1.0;
inline constexpr int kSetupMaxRepeats = 100;

/// Seed of every model's initial weights. It does not follow the workload
/// seed: the serving workloads mostly serve untrained models, whose
/// accuracy would otherwise change with the seed.
inline constexpr uint64_t kModelSeed = 2021;

/// Builds one of the library's dataset profiles as the library defines it.
/// The datasets are the same for every workload seed, so accuracy numbers
/// compare across seeds; the seed picks schedules, windows and batch order.
/// `build_s` receives the build time.
tb::data::TrafficDataset BuildDataset(const std::string& profile,
                                      SpanRecorder* spans, double* build_s);

/// Runs `setup` repeatedly (see kSetupRepeats), destroying each result before
/// the next is built, and returns the median CPU time. `keep` receives the
/// last.
template <typename State>
double RepeatedSetup(const std::function<State()>& setup, State* keep);

/// Median of a small sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// "a b c" with 4 significant digits each, for report lines.
std::string Joined(const std::vector<double>& values);

/// CPU seconds used so far by the whole process (every thread, exited ones
/// included) and by the calling thread. On a virtual machine the hypervisor
/// takes wall time from busy vCPUs in bursts whenever more than one of them
/// runs (steal); CPU time does not count stolen time, wall time does. The
/// closed-loop cost metrics are therefore CPU-time based.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Per-kind op statistics of a context's profiler at one instant.
struct KernelSnapshot {
  std::array<tb::exec::OpStats, static_cast<size_t>(tb::exec::OpKind::kNumKinds)>
      stats{};
  static KernelSnapshot Take(const tb::exec::ExecutionContext& context);
  double TotalSeconds() const;
};

/// Writes tensor.<Kind>.ms (per `units` units of work) and
/// tensor.<Kind>.gflops (achieved rate) from the difference of two
/// snapshots, and optim.adam_ms likewise.
void RecordKernelMetrics(const KernelSnapshot& before,
                         const KernelSnapshot& after, double units,
                         Outcome* outcome);

/// Writes the end-to-end metrics of a run (peak RSS and ok share from the
/// process and `outcome`'s counts; `throughput` is per CPU second).
void Summarize(Outcome* outcome, double setup_s, double throughput, double mae);

/// Sets every per-layer metric to 0, so layers a workload never calls
/// report 0 rather than being absent.
void ZeroPerLayer(Outcome* outcome);

/// [T_in, N, 2] input window of sample `index` (no batch axis).
tb::Tensor WindowOf(const tb::data::TrafficDataset& dataset, int64_t index);
/// [T_out, N] raw-scale ground truth of sample `index`.
tb::Tensor TruthOf(const tb::data::TrafficDataset& dataset, int64_t index);

/// True when two tensors have equal shapes and identical bytes.
bool BitEqual(const tb::Tensor& a, const tb::Tensor& b);

/// Masked mean absolute error over answers (0 targets are missing
/// readings). A non-finite answer makes the mean non-finite.
class MaeAccumulator {
 public:
  void Add(const tb::Tensor& prediction, const tb::Tensor& truth);
  double Mae() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  int64_t count() const { return count_; }

 private:
  double sum_ = 0.0;
  int64_t count_ = 0;
};

template <typename State>
double RepeatedSetup(const std::function<State()>& setup, State* keep) {
  std::vector<double> cpu_s, wall_s;
  double total = 0.0;
  while (static_cast<int>(cpu_s.size()) < kSetupRepeats ||
         (total < kSetupMinSeconds && static_cast<int>(cpu_s.size()) < kSetupMaxRepeats)) {
    *keep = State();  // release the previous set-up before building the next
    const double cpu0 = ProcessCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    *keep = setup();
    wall_s.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    total += wall_s.back();
  }
  const double median = Median(cpu_s);
  std::printf("setup: %zu runs, median cpu %.6f s (min %.6f, max %.6f), median wall "
              "%.6f s\n",
              cpu_s.size(), median, *std::min_element(cpu_s.begin(), cpu_s.end()),
              *std::max_element(cpu_s.begin(), cpu_s.end()), Median(wall_s));
  return median;
}

Outcome RunTrainSweep(const RunConfig& config, SpanRecorder* spans);
Outcome RunServeMixed(const RunConfig& config, SpanRecorder* spans);
Outcome RunServeHot(const RunConfig& config, SpanRecorder* spans);
Outcome RunCityScale(const RunConfig& config, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
