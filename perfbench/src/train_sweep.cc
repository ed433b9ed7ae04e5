// train_sweep: the paper's Table III path, closed and offline. Each round
// trains every paper model on METR-LA-S for a fixed number of batches and
// then scores a fixed slice of test windows; rounds repeat until the run's
// time is spent. Kernels, backward passes, Adam and the buffer pool do the
// work; the serving, plan and partition layers are not called.
//
// The end-to-end cost metrics count CPU seconds of the process (the main
// thread and the kernel thread), not wall seconds: on a virtual machine the
// hypervisor steals a varying share of wall time whenever both threads run.
// Wall times are kept for the per-layer models.* metrics.
//
// The work is the same for every workload seed: after two batches a model's
// test error depends on which two batches it saw (4.9 to 7.0 mph across
// seeds), which would drown any change in the accuracy metric. Fixed work
// also lets the reference check below hold at every seed.

#include <cmath>
#include <map>
#include <memory>

#include "common.h"
#include "src/eval/trainer.h"
#include "src/models/traffic_model.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
constexpr int64_t kBatch = 8;
constexpr int64_t kTrainBatches = 2;
constexpr int64_t kEvalWindows = 8;

// Order of the training batches.
constexpr uint64_t kBatchOrderSeed = 7;

// Test MAE of each model after one round, as measured on x86-64 with
// AVX-512. Kernels pick their code path by ISA, so another host may differ
// in the last bits; the tolerance covers that and nothing more.
constexpr double kReferenceTolerance = 0.005;  // relative
const std::map<std::string, double>& ReferenceMae() {
  static const std::map<std::string, double> kMae = {
      {"STGCN", 5.605485},      {"DCRNN", 5.917181},
      {"ASTGCN", 8.270456},     {"ST-MetaNet", 5.140963},
      {"Graph-WaveNet", 4.956419}, {"STG2Seq", 5.711526},
      {"STSGCN", 4.955555},     {"GMAN", 6.469515}};
  return kMae;
}

struct State {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  std::unique_ptr<tb::exec::ExecutionContext> context;
  std::vector<std::unique_ptr<tb::models::TrafficModel>> models;
  double data_build_s = 0.0;
};

struct PerModel {
  double train_s = 0.0;
  int64_t train_batches = 0;
  double eval_s = 0.0;
  int64_t eval_windows = 0;
  double first_mae = NAN;
};

}  // namespace

Outcome RunTrainSweep(const RunConfig& config, SpanRecorder* spans) {
  Outcome out;
  if (config.trace) ZeroPerLayer(&out);

  std::unique_ptr<State> state;
  const double setup_s = RepeatedSetup<std::unique_ptr<State>>(
      [&] {
        auto s = std::make_unique<State>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            BuildDataset("METR-LA-S", spans, &s->data_build_s));
        s->context = std::make_unique<tb::exec::ExecutionContext>(
            tb::exec::ExecOptions{kThreads, config.trace});
        SpanRecorder::Scope span(spans, "models.build");
        for (const std::string& name : PaperModels()) {
          s->models.push_back(tb::models::CreateModel(
              name, tb::models::MakeModelContext(*s->dataset, kModelSeed)));
        }
        return s;
      },
      &state);
  const tb::data::TrafficDataset& dataset = *state->dataset;
  tb::exec::ExecutionContext& context = *state->context;
  const tb::data::DatasetSplits splits = dataset.Splits();
  context.buffer_pool()->ResetStats();

  std::map<std::string, PerModel> per_model;
  // Per round: training windows per CPU second of TrainModel, and CPU ms
  // of EvaluateModel per window. The metrics are medians over rounds.
  std::vector<double> round_train_rate, round_eval_ms;
  double op_seconds_in_train = 0.0;
  const KernelSnapshot kernels_before = KernelSnapshot::Take(context);
  const auto start = std::chrono::steady_clock::now();
  int64_t rounds = 0;
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  do {
    SpanRecorder::Scope round_span(spans, "sweep.round");
    double round_train_cpu_s = 0.0, round_eval_cpu_s = 0.0;
    int64_t round_train_windows = 0, round_eval_windows = 0;
    for (size_t m = 0; m < PaperModels().size(); ++m) {
      const std::string& name = PaperModels()[m];
      PerModel& stats = per_model[name];
      std::unique_ptr<tb::models::TrafficModel> model;
      if (rounds == 0) {
        model = std::move(state->models[m]);
      } else {
        SpanRecorder::Scope span(spans, "models.build", round_span.id());
        model = tb::models::CreateModel(
            name, tb::models::MakeModelContext(dataset, kModelSeed));
      }
      ++out.attempted;

      tb::eval::TrainConfig train;
      train.epochs = 1;
      train.batch_size = kBatch;
      train.max_batches_per_epoch = kTrainBatches;
      train.seed = kBatchOrderSeed;
      train.exec = &context;
      const double op_before = KernelSnapshot::Take(context).TotalSeconds();
      const double t_train = spans->Now();
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = std::chrono::steady_clock::now();
      tb::eval::TrainResult result = tb::eval::TrainModel(model.get(), dataset, train);
      const double train_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      round_train_cpu_s += ProcessCpuSeconds() - cpu0;
      spans->Add("eval.TrainModel/" + name, t_train, spans->Now(), round_span.id());
      op_seconds_in_train += KernelSnapshot::Take(context).TotalSeconds() - op_before;
      stats.train_s += train_s;
      stats.train_batches += result.batches_per_epoch;
      round_train_windows += result.batches_per_epoch * kBatch;

      tb::eval::EvalOptions eval;
      eval.batch_size = kBatch;
      eval.exec = &context;
      const double t_eval = spans->Now();
      const double cpu1 = ProcessCpuSeconds();
      const auto t1 = std::chrono::steady_clock::now();
      tb::eval::HorizonReport report = tb::eval::EvaluateModel(
          model.get(), dataset, splits.test_begin, splits.test_begin + kEvalWindows,
          eval);
      const double eval_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t1)
                                .count();
      round_eval_cpu_s += ProcessCpuSeconds() - cpu1;
      spans->Add("eval.EvaluateModel/" + name, t_eval, spans->Now(), round_span.id());
      stats.eval_s += eval_s;
      stats.eval_windows += report.windows;
      round_eval_windows += report.windows;

      // Checks: training finished, the score is finite, every round scores
      // exactly what the first did (same work), and the first round
      // reproduces the stored reference.
      const double mae = report.average.mae;
      bool ok = true;
      if (!result.status.ok()) {
        out.Fail(name + ": training failed: " + result.status.ToString());
        ok = false;
      } else if (!std::isfinite(mae) || report.windows != kEvalWindows) {
        out.Fail(name + ": test MAE not finite");
        ok = false;
      } else if (rounds == 0) {
        stats.first_mae = mae;
        const double ref = ReferenceMae().at(name);
        if (std::fabs(mae - ref) > kReferenceTolerance * ref) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s: test MAE %.6f differs from reference %.6f",
                        name.c_str(), mae, ref);
          out.Fail(buf);
          ok = false;
        }
      } else if (mae != stats.first_mae) {
        out.Fail(name + ": test MAE changed between identical rounds");
        ok = false;
      }
      if (!ok) ++out.failed;
    }
    round_train_rate.push_back(static_cast<double>(round_train_windows) /
                               round_train_cpu_s);
    round_eval_ms.push_back(round_eval_cpu_s * 1e3 /
                            static_cast<double>(round_eval_windows));
    ++rounds;
  } while (elapsed() < config.seconds);

  double train_s = 0.0, eval_s = 0.0, mae_sum = 0.0;
  int64_t train_windows = 0, eval_windows = 0;
  for (const std::string& name : PaperModels()) {
    const PerModel& s = per_model[name];
    train_s += s.train_s;
    eval_s += s.eval_s;
    train_windows += s.train_batches * kBatch;
    eval_windows += s.eval_windows;
    mae_sum += s.first_mae;
    if (config.trace) {
      out.metrics["models." + name + ".train_ms_per_batch"] =
          s.train_s * 1e3 / static_cast<double>(s.train_batches);
      out.metrics["models." + name + ".eval_ms_per_window"] =
          s.eval_s * 1e3 / static_cast<double>(s.eval_windows);
    }
  }

  Summarize(&out, setup_s, Median(round_train_rate),
            mae_sum / static_cast<double>(PaperModels().size()));

  if (config.trace) {
    out.metrics["data.build_s"] = state->data_build_s;
    out.metrics["eval.windows_per_s"] = static_cast<double>(eval_windows) / eval_s;
    RecordKernelMetrics(kernels_before, KernelSnapshot::Take(context),
                        static_cast<double>(rounds), &out);
    const tb::BufferPool::Stats pool = context.buffer_pool()->stats();
    out.metrics["tensor.pool.hit_ratio"] = pool.HitRate();
    out.metrics["tensor.pool.misses"] =
        static_cast<double>(pool.misses) / static_cast<double>(rounds);
    out.metrics["exec.op_share"] = op_seconds_in_train / train_s;
  }
  std::printf("train_sweep: %lld rounds, %lld training windows in %.3f s, "
              "%lld eval windows in %.3f s (wall) | per round: %s training "
              "windows/cpu-s, %s eval cpu-ms/window\n",
              static_cast<long long>(rounds), static_cast<long long>(train_windows),
              train_s, static_cast<long long>(eval_windows), eval_s,
              Joined(round_train_rate).c_str(), Joined(round_eval_ms).c_str());
  for (const std::string& name : PaperModels()) {
    const PerModel& s = per_model[name];
    std::printf("  %-14s test MAE %.6f | train %.2f ms/batch | eval %.3f ms/window\n",
                name.c_str(), s.first_mae,
                s.train_s * 1e3 / static_cast<double>(s.train_batches),
                s.eval_s * 1e3 / static_cast<double>(s.eval_windows));
  }
  return out;
}

}  // namespace perfbench
