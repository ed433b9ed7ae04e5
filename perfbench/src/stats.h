#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and seeded input schedules of the benchmark. Everything
// here is independent of the library under test, so a change to the
// program can never change the inputs the benchmark feeds it.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it (rank ceil(p/100 * n), 1-based).
/// p50 of one sample is that sample. Returns 0 for an empty sample.
double NearestRank(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
int64_t SamplesBeyond(int64_t n, double p);

/// True when a sample of `n` supports reporting the `p` percentile: at least
/// `min_beyond` samples lie beyond it (10 in the reporting rule).
bool SupportsPercentile(int64_t n, double p, int64_t min_beyond = 10);

/// Smallest sample count whose `p` percentile has `min_beyond` samples
/// beyond it (1000 for p99 and 10).
int64_t MinSamplesFor(double p, int64_t min_beyond = 10);

/// Deterministic 64-bit generator (splitmix64). Kept in the benchmark rather
/// than taken from the library so the inputs never depend on program code.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Independent seed for one input stream of a workload, so adding a stream
/// never shifts another.
uint64_t StreamSeed(uint64_t workload_seed, uint64_t stream);

/// Due times, in seconds from the start of a step, of `n` Poisson arrivals
/// at `rate` per second. Nondecreasing; a pure function of its arguments.
std::vector<double> PoissonArrivals(double rate, int64_t n, uint64_t seed);

/// One open-loop request of serve_mixed.
struct MixedRequest {
  double due = 0.0;    // seconds from step start
  int64_t window = 0;  // index into the window pool
  int model = 0;       // index into the model list
};

/// Poisson arrivals where every request asks for a distinct window of a
/// pool of `pool` windows (a seeded permutation; it restarts with a fresh
/// permutation only when a step has more requests than the pool) and is
/// assigned one of `models` models uniformly at random.
std::vector<MixedRequest> MixedSchedule(double rate, int64_t n, int64_t pool,
                                        int models, uint64_t seed);

/// One open-loop request of serve_hot.
struct HotRequest {
  double due = 0.0;
  int64_t window = 0;
};

/// Poisson arrivals where all requests due in the same `interval_s` ask for
/// the same "latest" window, as clients in one 5-minute interval do, and the
/// window advances by one each interval: window = (first + floor(due /
/// interval_s)) mod pool, with `first` drawn from the seed.
std::vector<HotRequest> SharedWindowSchedule(double rate, int64_t n,
                                             double interval_s, int64_t pool,
                                             uint64_t seed);

/// Latency of one open-loop request measured from its due time: how late the
/// submit call started plus the server-reported submit-to-response time.
/// An early submit (negative lateness) counts as on time.
double DueLatencySeconds(double due_s, double submit_s, double total_s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
