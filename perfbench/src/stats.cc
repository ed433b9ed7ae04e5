#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

int64_t NearestRankIndex(int64_t n, double p) {
  // 1-based rank ceil(p/100 * n), clamped to [1, n]. The small epsilon keeps
  // exact products such as 0.99 * 1000 from rounding up to the next rank.
  const double exact = p / 100.0 * static_cast<double>(n);
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t index = NearestRankIndex(n, p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<size_t>(index)];
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  return n - NearestRankIndex(n, p);
}

bool SupportsPercentile(int64_t n, double p, int64_t min_beyond) {
  return SamplesBeyond(n, p) >= min_beyond;
}

int64_t MinSamplesFor(double p, int64_t min_beyond) {
  int64_t n = 1;
  while (!SupportsPercentile(n, p, min_beyond)) ++n;
  return n;
}

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) { return Next() % n; }

double SplitMix64::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

uint64_t StreamSeed(uint64_t workload_seed, uint64_t stream) {
  SplitMix64 mix(workload_seed * 0x100000001B3ull + stream);
  mix.Next();
  return mix.Next();
}

std::vector<double> PoissonArrivals(double rate, int64_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> due(static_cast<size_t>(std::max<int64_t>(n, 0)));
  double t = 0.0;
  for (double& d : due) {
    t += rng.Exponential(rate);
    d = t;
  }
  return due;
}

std::vector<MixedRequest> MixedSchedule(double rate, int64_t n, int64_t pool,
                                        int models, uint64_t seed) {
  const std::vector<double> due = PoissonArrivals(rate, n, seed);
  SplitMix64 rng(seed ^ 0x5851F42D4C957F2Dull);
  std::vector<int64_t> perm;
  std::vector<MixedRequest> out(due.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (perm.empty()) {
      perm.resize(static_cast<size_t>(pool));
      for (int64_t j = 0; j < pool; ++j) perm[static_cast<size_t>(j)] = j;
      for (int64_t j = pool - 1; j > 0; --j) {
        std::swap(perm[static_cast<size_t>(j)],
                  perm[rng.Below(static_cast<uint64_t>(j + 1))]);
      }
    }
    out[i].due = due[i];
    out[i].window = perm.back();
    perm.pop_back();
    out[i].model = static_cast<int>(rng.Below(static_cast<uint64_t>(models)));
  }
  return out;
}

std::vector<HotRequest> SharedWindowSchedule(double rate, int64_t n,
                                             double interval_s, int64_t pool,
                                             uint64_t seed) {
  const std::vector<double> due = PoissonArrivals(rate, n, seed);
  SplitMix64 rng(seed ^ 0x2545F4914F6CDD1Dull);
  const int64_t first = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(pool)));
  std::vector<HotRequest> out(due.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const int64_t interval = static_cast<int64_t>(due[i] / interval_s);
    out[i].due = due[i];
    out[i].window = (first + interval) % pool;
  }
  return out;
}

double DueLatencySeconds(double due_s, double submit_s, double total_s) {
  return std::max(0.0, submit_s - due_s) + total_s;
}

}  // namespace perfbench
