#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

#include "stats.h"

namespace perfbench {

namespace {

// tensor.<Kind> metric name -> profiler kind (metric names follow the
// kernel kinds' role; the profiler's display names are shorter).
tb::exec::OpKind KindOf(const std::string& name) {
  using tb::exec::OpKind;
  static const std::vector<std::pair<std::string, OpKind>> kMap = {
      {"MatMul", OpKind::kMatMul},         {"MatMulBwd", OpKind::kMatMulBackward},
      {"Conv2d", OpKind::kConv2d},         {"Conv2dBwd", OpKind::kConv2dBackward},
      {"SpMM", OpKind::kSpMM},             {"SpMMBwd", OpKind::kSpMMBackward},
      {"Unary", OpKind::kUnary},           {"UnaryBwd", OpKind::kUnaryBackward},
      {"Binary", OpKind::kBinary},         {"BinaryBwd", OpKind::kBinaryBackward},
      {"Softmax", OpKind::kSoftmax},       {"Reduce", OpKind::kReduce},
      {"DataMovement", OpKind::kDataMovement},
      {"FusedEpilogue", OpKind::kFusedEpilogue}};
  for (const auto& [n, kind] : kMap) {
    if (n == name) return kind;
  }
  return OpKind::kNumKinds;
}

}  // namespace

tb::data::TrafficDataset BuildDataset(const std::string& profile_name,
                                      SpanRecorder* spans, double* build_s) {
  SpanRecorder::Scope span(spans, "data.build");
  const auto start = std::chrono::steady_clock::now();
  tb::data::TrafficDataset dataset = tb::data::TrafficDataset::FromProfile(
      tb::data::ProfileByName(profile_name).value());
  *build_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                 .count();
  return dataset;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Joined(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

namespace {
double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

KernelSnapshot KernelSnapshot::Take(const tb::exec::ExecutionContext& context) {
  KernelSnapshot snap;
  for (size_t k = 0; k < snap.stats.size(); ++k) {
    snap.stats[k] = context.profiler().stats(static_cast<tb::exec::OpKind>(k));
  }
  return snap;
}

double KernelSnapshot::TotalSeconds() const {
  double total = 0.0;
  for (const tb::exec::OpStats& s : stats) total += s.seconds;
  return total;
}

void RecordKernelMetrics(const KernelSnapshot& before,
                         const KernelSnapshot& after, double units,
                         Outcome* outcome) {
  auto delta = [&](tb::exec::OpKind kind) {
    const size_t k = static_cast<size_t>(kind);
    tb::exec::OpStats d;
    d.calls = after.stats[k].calls - before.stats[k].calls;
    d.seconds = after.stats[k].seconds - before.stats[k].seconds;
    d.flops = after.stats[k].flops - before.stats[k].flops;
    return d;
  };
  const double per = units > 0 ? 1.0 / units : 0.0;
  for (const std::string& name : KernelKindNames()) {
    const tb::exec::OpStats d = delta(KindOf(name));
    outcome->metrics["tensor." + name + ".ms"] = d.seconds * 1e3 * per;
    outcome->metrics["tensor." + name + ".gflops"] =
        d.seconds > 0 ? d.flops / d.seconds * 1e-9 : 0.0;
  }
  outcome->metrics["optim.adam_ms"] =
      delta(tb::exec::OpKind::kAdamStep).seconds * 1e3 * per;
}

void Summarize(Outcome* outcome, double setup_s, double throughput, double mae) {
  outcome->metrics["setup_s"] = setup_s;
  outcome->metrics["peak_rss_mb"] = PeakRssMb();
  outcome->metrics["ok_share"] = 1.0 - static_cast<double>(outcome->failed) /
                                           static_cast<double>(outcome->attempted);
  outcome->metrics["throughput_per_cpu_s"] = throughput;
  outcome->metrics["answer_mae"] = mae;
}

void ZeroPerLayer(Outcome* outcome) {
  for (const MetricDef& def : PerLayerMetrics()) outcome->metrics[def.name] = 0.0;
}

tb::Tensor WindowOf(const tb::data::TrafficDataset& dataset, int64_t index) {
  tb::Tensor x = dataset.MakeBatch({index}).x;  // [1, T_in, N, 2]
  return tb::Tensor::FromVector({x.dim(1), x.dim(2), x.dim(3)}, x.ToVector());
}

tb::Tensor TruthOf(const tb::data::TrafficDataset& dataset, int64_t index) {
  tb::Tensor y = dataset.MakeBatch({index}).y;  // [1, T_out, N]
  return tb::Tensor::FromVector({y.dim(1), y.dim(2)}, y.ToVector());
}

bool BitEqual(const tb::Tensor& a, const tb::Tensor& b) {
  if (!a.defined() || !b.defined() || a.numel() != b.numel()) return false;
  const std::vector<float> va = a.ToVector();
  const std::vector<float> vb = b.ToVector();
  return std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)) == 0;
}

void MaeAccumulator::Add(const tb::Tensor& prediction, const tb::Tensor& truth) {
  const std::vector<float> p = prediction.ToVector();
  const std::vector<float> t = truth.ToVector();
  const size_t n = std::min(p.size(), t.size());
  for (size_t i = 0; i < n; ++i) {
    if (t[i] == 0.0f) continue;
    sum_ += std::fabs(static_cast<double>(p[i]) - t[i]);
    ++count_;
  }
}

}  // namespace perfbench
