// The three serving workloads: serve_mixed (open loop over four fp32 lanes),
// serve_hot (open loop on one bf16 lane with the admission ladder and the
// response cache) and city_scale (closed loop on a 2048-node network).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "stats.h"
#include "src/eval/trainer.h"
#include "src/models/traffic_model.h"
#include "src/nn/serialize.h"
#include "src/serve/server.h"

namespace perfbench {

namespace {

namespace serve = tb::serve;
using Clock = std::chrono::steady_clock;

// Set-up (training, plan compiles) runs on one kernel thread, and no server
// or load generator runs then, so its CPU time (setup_s) is its wall time
// less what the host steals: the cost of the set-up itself.
constexpr int kSetupThreads = 1;
constexpr int64_t kBucket = 8;

// serve_mixed: four fp32 lanes (PlanModels()) on 2 workers x 1 thread. Two
// steps run on fresh servers:
//  - reference: 1000 Poisson arrivals at 100/s. It sits well inside the
//    150 ms SLO on a quiet 4-CPU Xeon with AVX-512, where the four lanes
//    saturate near 280/s. It gives the accuracy metric and the per-layer
//    latency and queue metrics.
//  - backlog: kMixedBacklog requests all due at once, which the server
//    drains in full micro-batches. The throughput metric is its answers per
//    CPU second of the server's threads: the server's capacity, net of the
//    time the host steals. The queue is deep enough that nothing is shed.
constexpr double kMixedReferenceRate = 100.0;
constexpr int64_t kMixedBacklog = 1000;
constexpr double kMixedSloMs = 150.0;
constexpr int64_t kMixedChecksPerStep = 8;
constexpr int64_t kMixedQueueCapacity = 4096;

// serve_hot: one bf16 Graph-WaveNet lane on 3 workers x 1 thread with the
// admission ladder (default options, 50 ms SLO) and a 1024-entry cache.
// Set-up trains Graph-WaveNet until it beats HistoricalAverage. Two phases
// run on fresh servers:
//  - reference, 1000 requests at 200/s, where the parent build serves every
//    request at tier 0 on a quiet host. The throughput metric is its tier-0
//    answers per CPU second of the server's threads (the workers compute no
//    others), and the per-layer latency that of its tier-0 answers. Under
//    overload the answers are served inline in microseconds at a tier the
//    ladder latches on at random, so latency there measures host noise, not
//    the server; and a burst of host noise can latch the ladder at 200/s
//    too, which must not turn the latency into that.
//  - overload, at 800/s for kHotOverloadRequests requests: 2x the highest
//    rate at which the parent build served every request at tier 0 on a
//    4-CPU Xeon (400/s; at 500/s the ladder already degrades). Served
//    accuracy and the ladder and cache counts come from it. Its goodput is
//    printed, not gated: on the parent 98-99% of its answers are tier 2,
//    answered inline in microseconds, so it follows the offered rate.
constexpr double kHotReferenceRate = 200.0;
constexpr double kHotRate = 800.0;
constexpr int64_t kHotOverloadRequests = 4000;
constexpr int64_t kHotTrainBatches = 80;
constexpr double kHotLearningRate = 3e-3;
constexpr int64_t kHotCheckStride = 4;  // every 4th test window
constexpr int64_t kHotCacheCapacity = 1024;

// city_scale: STSGCN fp32 on SYNTH-2K, 1 worker x 2 threads, one full
// micro-batch outstanding. The long batching delay makes every 8-request
// burst coalesce into one bucket-8 batch. Requests walk the test split from
// a seeded start in steps of kCityWindowStride windows, so the first answers
// (which give the accuracy metric) already span the whole split.
constexpr double kCityQueueDelayMs = 50.0;
constexpr int64_t kCityWindowStride = 7;
constexpr int64_t kCityChecks = 2;
constexpr int64_t kCityMaeAnswers = 64;

/// One answered request of an open or closed loop.
struct Answer {
  serve::PredictResponse response;
  double lateness_s = 0.0;     // submit call start - due time
  double submit_call_s = 0.0;  // duration of Server::Submit
  double latency_s = 0.0;      // due time -> response
  bool ok = false;             // ok status and passed its check
};

/// CPU seconds used by the server's threads between construction of this
/// mark and Seconds(): the process's CPU time minus the calling thread's
/// (the load generator, which also runs Submit). Read it after
/// Server::Stop(), so the workers have exited and their time is counted.
class ServerCpu {
 public:
  double Seconds() const {
    return (ProcessCpuSeconds() - process_) - (ThreadCpuSeconds() - caller_);
  }

 private:
  double process_ = ProcessCpuSeconds();
  double caller_ = ThreadCpuSeconds();
};

/// Sends requests[i] when due[i] seconds have passed since the call, then
/// collects every answer. Records one span per request with its submit,
/// queue and compute parts (the last two from the response's own fields).
std::vector<Answer> SendAll(serve::Server* server,
                            std::vector<serve::PredictRequest> requests,
                            const std::vector<double>& due, SpanRecorder* spans,
                            int64_t* request_ids) {
  struct Sent {
    Clock::time_point target, begin, end;
    std::future<serve::PredictResponse> future;
  };
  std::vector<Sent> sent(requests.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    Sent& s = sent[i];
    s.target = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i]));
    // Sleep to within kSpin of the due time, then busy-wait: on a virtual
    // machine a timer wake-up can be milliseconds late, which would
    // dominate the latency of answers served inline, but a generator that
    // spins all the time keeps a second vCPU busy, and the hypervisor then
    // steals time from the workers too.
    constexpr auto kSpin = std::chrono::microseconds(1500);
    if (s.target - Clock::now() > kSpin) std::this_thread::sleep_until(s.target - kSpin);
    while (Clock::now() < s.target) {
    }
    s.begin = Clock::now();
    s.future = server->Submit(std::move(requests[i]));
    s.end = Clock::now();
  }
  std::vector<Answer> answers(sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    Answer& a = answers[i];
    a.response = sent[i].future.get();
    a.lateness_s = std::chrono::duration<double>(sent[i].begin - sent[i].target).count();
    a.submit_call_s = std::chrono::duration<double>(sent[i].end - sent[i].begin).count();
    a.latency_s = DueLatencySeconds(0.0, a.lateness_s, a.response.total_seconds);
    a.ok = a.response.status.ok();
    if (spans->enabled()) {
      const int64_t req = (*request_ids)++;
      const double due_t = spans->At(sent[i].target);
      const double sub_t = spans->At(sent[i].begin);
      const int64_t root = spans->Add("request", due_t, due_t + a.latency_s, -1, req);
      spans->Add("serve.Submit", sub_t, spans->At(sent[i].end), root, req);
      if (a.ok && a.response.tier == 0) {
        const double q = sub_t + a.response.queue_seconds;
        spans->Add("serve.queue", sub_t, q, root, req);
        spans->Add("serve.compute", q, q + a.response.compute_seconds, root, req);
      }
    }
  }
  return answers;
}

/// Reads "B<bucket>: <steps> steps (<fused> fused" from a plan summary.
bool ParsePlanSteps(const std::string& summary, int64_t bucket, double* steps,
                    double* fused) {
  const std::string key = "B" + std::to_string(bucket) + ": ";
  const size_t at = summary.find(key);
  if (at == std::string::npos) return false;
  long long s = 0, f = 0;
  if (std::sscanf(summary.c_str() + at + key.size(), "%lld steps (%lld fused",
                  &s, &f) != 2) {
    return false;
  }
  *steps = static_cast<double>(s);
  *fused = static_cast<double>(f);
  return true;
}

/// A [b, T_in, N, 2] batch of consecutive test windows.
tb::Tensor TestBatch(const tb::data::TrafficDataset& dataset, int64_t b) {
  std::vector<int64_t> idx;
  const tb::data::DatasetSplits splits = dataset.Splits();
  for (int64_t i = 0; i < b; ++i) idx.push_back(splits.test_begin + i);
  return dataset.MakeBatch(idx).x;
}

/// Compiles the plan of each listed batch bucket (on its first Predict) and
/// returns the seconds the bucket-kBucket compile took.
double WarmBuckets(const serve::LoadedModel& entry,
                   const tb::data::TrafficDataset& dataset,
                   const std::vector<int64_t>& buckets, SpanRecorder* spans) {
  double bucket8_s = 0.0;
  for (int64_t b : buckets) {
    SpanRecorder::Scope span(spans, "plan.compile/" + entry.model_name());
    const tb::Tensor x = TestBatch(dataset, b);
    const auto t0 = Clock::now();
    entry.Predict(x);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (b == kBucket) bucket8_s = s;
  }
  return bucket8_s;
}

/// Plan metrics for one model: steps and fused steps from the registry's
/// plan summary, and a direct bucket-8 replay outside the server on a
/// profiling context (which also feeds the tensor.* metrics).
void RecordPlanReplay(const serve::LoadedModel& entry,
                      const tb::data::TrafficDataset& dataset, int replays,
                      tb::exec::ExecutionContext* profiling, SpanRecorder* spans,
                      Outcome* out) {
  const std::string& m = entry.model_name();
  double steps = 0.0, fused = 0.0;
  if (!ParsePlanSteps(entry.plan_summary(), kBucket, &steps, &fused)) {
    std::printf("note: plan.%s.steps unavailable: %s\n", m.c_str(),
                entry.plan_summary().c_str());
  }
  out->metrics["plan." + m + ".steps"] = steps;
  out->metrics["plan." + m + ".fused_steps"] = fused;
  const tb::Tensor x = TestBatch(dataset, kBucket);
  tb::exec::ExecutionContext::Bind bind(profiling);
  SpanRecorder::Scope span(spans, "plan.replay/" + m);
  const auto t0 = Clock::now();
  for (int i = 0; i < replays; ++i) entry.Predict(x);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  out->metrics["plan." + m + ".replay_ms_per_window"] =
      s * 1e3 / static_cast<double>(replays * kBucket);
}

/// Queue and batcher metrics of one server run, and the load generator's
/// own health.
void RecordQueueLayers(const serve::LatencySummary& sum, const std::vector<Answer>& answers,
                       Outcome* out) {
  std::vector<double> submit_us, lag_ms;
  for (const Answer& a : answers) {
    submit_us.push_back(a.submit_call_s * 1e6);
    lag_ms.push_back(a.lateness_s * 1e3);
  }
  out->metrics["serve.queue_wait_p50_ms"] = sum.queue_p50 * 1e3;
  out->metrics["serve.queue_wait_p99_ms"] = sum.queue_p99 * 1e3;
  out->metrics["serve.batch_compute_p50_ms"] = sum.batch_p50 * 1e3;
  out->metrics["serve.mean_batch_size"] = sum.mean_batch_size;
  out->metrics["serve.submit_us_p99"] = NearestRank(submit_us, 99);
  out->metrics["serve.generator_lag_p99_ms"] = NearestRank(lag_ms, 99);
}

/// Degradation-ladder, cache and shed counts of one server run.
void RecordLadderLayers(const serve::LatencySummary& sum,
                        const serve::ResponseCacheStats& cache, Outcome* out) {
  const double ok = static_cast<double>(sum.tier0 + sum.tier1 + sum.tier2);
  out->metrics["serve.tier0"] = static_cast<double>(sum.tier0);
  out->metrics["serve.tier1"] = static_cast<double>(sum.tier1);
  out->metrics["serve.tier2"] = static_cast<double>(sum.tier2);
  out->metrics["serve.degraded_share"] = ok > 0 ? static_cast<double>(sum.tier2) / ok : 0.0;
  out->metrics["serve.cache.hits"] = static_cast<double>(cache.hits);
  out->metrics["serve.cache.misses"] = static_cast<double>(cache.misses);
  out->metrics["serve.cache.insertions"] = static_cast<double>(cache.insertions);
  out->metrics["serve.shed.queue_full"] = static_cast<double>(sum.shed_queue_full);
  out->metrics["serve.shed.aged_out"] = static_cast<double>(sum.shed_aged_out);
  out->metrics["serve.shed.closed"] = static_cast<double>(sum.shed_closed);
}

/// How punctual the load generator was: submit lateness p50/p99/max and
/// the p99 duration of the Submit call itself.
std::string LoopHealth(const std::vector<Answer>& answers) {
  std::vector<double> late_ms, submit_ms;
  for (const Answer& a : answers) {
    late_ms.push_back(a.lateness_s * 1e3);
    submit_ms.push_back(a.submit_call_s * 1e3);
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "generator lateness p50 %.3f p99 %.3f max %.3f ms, Submit p99 %.3f ms",
                NearestRank(late_ms, 50), NearestRank(late_ms, 99),
                NearestRank(late_ms, 100), NearestRank(submit_ms, 99));
  return buf;
}

/// Due-time latencies of a step in ms; failed answers count as missing any
/// SLO (infinite latency).
std::vector<double> LatenciesMs(const std::vector<Answer>& answers) {
  std::vector<double> ms;
  for (const Answer& a : answers) {
    ms.push_back(a.ok ? a.latency_s * 1e3 : INFINITY);
  }
  return ms;
}

struct Registry {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  double data_build_s = 0.0;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::map<std::string, double> compile_s;  // bucket-8 compile per model
};

serve::ModelSpec Spec(const std::string& model, const tb::data::TrafficDataset& dataset,
                      const std::string& dataset_name) {
  serve::ModelSpec spec;
  spec.model_name = model;
  spec.dataset_name = dataset_name;
  spec.dataset = &dataset;
  spec.seed = kModelSeed;
  spec.warmup = false;  // plans are compiled bucket by bucket below
  return spec;
}

void RequireOk(const tb::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(3);
  }
}

}  // namespace

// ---------------------------------------------------------------------------

Outcome RunServeMixed(const RunConfig& config, SpanRecorder* spans) {
  Outcome out;
  if (config.trace) ZeroPerLayer(&out);
  const std::string ds_name = "METR-LA-S";

  std::unique_ptr<Registry> state;
  const double setup_s = RepeatedSetup<std::unique_ptr<Registry>>(
      [&] {
        auto s = std::make_unique<Registry>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            BuildDataset(ds_name, spans, &s->data_build_s));
        s->registry = std::make_unique<serve::ModelRegistry>();
        tb::exec::ExecutionContext setup_ctx({kSetupThreads, false});
        tb::exec::ExecutionContext::Bind bind(&setup_ctx);
        for (const std::string& m : PlanModels()) {
          {
            SpanRecorder::Scope span(spans, "serve.registry.Load/" + m);
            RequireOk(s->registry->Load(Spec(m, *s->dataset, ds_name)),
                      "load " + m);
          }
          s->compile_s[m] = WarmBuckets(*s->registry->Find(m, ds_name), *s->dataset,
                                        {kBucket, 4, 2, 1}, spans);
        }
        return s;
      },
      &state);
  const tb::data::TrafficDataset& dataset = *state->dataset;

  serve::ServerOptions options;
  options.workers = 2;
  options.threads_per_worker = 1;
  options.batch.max_batch_size = kBucket;
  options.queue_capacity = kMixedQueueCapacity;

  const int64_t pool = dataset.num_samples();
  std::vector<MaeAccumulator> mae(PlanModels().size());
  int64_t request_ids = 0;
  // One step on a fresh server: every answer must be a tier-0 answer
  // (admission is off), and a seeded sample is checked bitwise against the
  // eager forward of its window. Returns the step's answers (failed ones
  // marked) and the server's CPU seconds.
  struct Step {
    std::vector<Answer> answers;
    std::vector<MixedRequest> schedule;
    serve::LatencySummary summary;
    serve::ResponseCacheStats cache;
    double server_cpu_s = 0.0;
    int64_t failed = 0;
  };
  // rate 0 sends the whole step at once.
  auto run_step = [&](double rate, int64_t n, uint64_t stream) {
    Step step;
    step.schedule = MixedSchedule(rate > 0 ? rate : 1.0, n, pool,
                                  static_cast<int>(PlanModels().size()),
                                  StreamSeed(config.seed, stream));
    if (rate == 0) {
      for (MixedRequest& r : step.schedule) r.due = 0.0;
    }
    std::vector<serve::PredictRequest> requests;
    std::vector<double> due;
    for (const MixedRequest& r : step.schedule) {
      requests.push_back({PlanModels()[static_cast<size_t>(r.model)], ds_name,
                          WindowOf(dataset, r.window)});
      due.push_back(r.due);
    }
    const ServerCpu cpu;
    serve::Server server(state->registry.get(), options);
    server.Start();
    {
      SpanRecorder::Scope span(
          spans, rate > 0 ? "step/" + std::to_string(static_cast<int>(rate)) : "step/backlog");
      step.answers = SendAll(&server, std::move(requests), due, spans, &request_ids);
    }
    server.Stop();
    step.server_cpu_s = cpu.Seconds();
    step.summary = server.recorder().Summary();
    step.cache = server.cache().stats();

    SplitMix64 pick(StreamSeed(config.seed, stream + 1000));
    std::vector<bool> check(step.answers.size(), false);
    for (int64_t c = 0; c < kMixedChecksPerStep; ++c) {
      check[pick.Below(step.answers.size())] = true;
    }
    for (size_t i = 0; i < step.answers.size(); ++i) {
      Answer& a = step.answers[i];
      const MixedRequest& r = step.schedule[i];
      const std::string& m = PlanModels()[static_cast<size_t>(r.model)];
      if (a.ok && a.response.tier != 0) {
        out.Fail(m + ": tier " + std::to_string(a.response.tier) +
                 " answer with admission off");
        a.ok = false;
      }
      if (a.ok && check[i]) {
        const tb::Tensor ref = state->registry->Find(m, ds_name)->PredictReference(
            dataset.MakeBatch({r.window}).x);
        if (!BitEqual(a.response.prediction, ref)) {
          out.Fail(m + ": served answer differs from PredictReference");
          a.ok = false;
        }
      }
      if (!a.ok) ++step.failed;
    }
    out.attempted += static_cast<int64_t>(step.answers.size());
    out.failed += step.failed;
    const std::vector<double> lat = LatenciesMs(step.answers);
    std::printf("serve_mixed: %s rate %.0f/s | %zu requests | p50 %.2f ms p99 %.2f ms | "
                "mean batch %.2f | server cpu %.3f s | failed %lld | %s\n",
                rate > 0 ? "reference" : "backlog", rate, step.answers.size(),
                NearestRank(lat, 50), NearestRank(lat, 99), step.summary.mean_batch_size, step.server_cpu_s,
                static_cast<long long>(step.failed), LoopHealth(step.answers).c_str());
    return step;
  };

  // Reference step: latency, and accuracy per model.
  const Step reference = run_step(kMixedReferenceRate, MinSamplesFor(99), 10);
  for (size_t i = 0; i < reference.answers.size(); ++i) {
    const Answer& a = reference.answers[i];
    const MixedRequest& r = reference.schedule[i];
    if (a.ok) {
      mae[static_cast<size_t>(r.model)].Add(a.response.prediction,
                                             TruthOf(dataset, r.window));
    }
  }
  if (config.trace) {
    RecordQueueLayers(reference.summary, reference.answers, &out);
    RecordLadderLayers(reference.summary, reference.cache, &out);
  }
  const std::vector<double> latencies = LatenciesMs(reference.answers);
  const double ref_p50 = NearestRank(latencies, 50), ref_p99 = NearestRank(latencies, 99);
  std::printf("serve_mixed: reference rate %.0f/s %s the %.0f ms SLO (p99 %.2f ms)\n",
              kMixedReferenceRate, ref_p99 <= kMixedSloMs ? "meets" : "misses",
              kMixedSloMs, ref_p99);

  // Backlog step: answers per CPU second of the server.
  const Step backlog = run_step(0.0, kMixedBacklog, 20);
  const double throughput =
      static_cast<double>(static_cast<int64_t>(backlog.answers.size()) - backlog.failed) /
      backlog.server_cpu_s;

  // Mean of the per-model errors, so the random split of requests among
  // models does not move it.
  double mae_sum = 0.0;
  for (const MaeAccumulator& m : mae) mae_sum += m.Mae();
  Summarize(&out, setup_s, throughput, mae_sum / static_cast<double>(mae.size()));

  if (config.trace) {
    out.metrics["data.build_s"] = state->data_build_s;
    out.metrics["serve.latency_p50_ms"] = ref_p50;
    out.metrics["serve.latency_p99_ms"] = ref_p99;
    tb::exec::ExecutionContext profiling({options.threads_per_worker, true});
    const KernelSnapshot before = KernelSnapshot::Take(profiling);
    constexpr int kReplays = 5;
    for (const std::string& m : PlanModels()) {
      out.metrics["plan." + m + ".compile_s"] = state->compile_s[m];
      RecordPlanReplay(*state->registry->Find(m, ds_name), dataset, kReplays,
                       &profiling, spans, &out);
    }
    RecordKernelMetrics(before, KernelSnapshot::Take(profiling),
                        static_cast<double>(kReplays * PlanModels().size()), &out);
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

struct HotState {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  double data_build_s = 0.0;
  std::unique_ptr<serve::ModelRegistry> registry;
  double compile_s = 0.0;
  double gwn_mae = 0.0, ha_mae = 0.0;
};

}  // namespace

Outcome RunServeHot(const RunConfig& config, SpanRecorder* spans) {
  Outcome out;
  if (config.trace) ZeroPerLayer(&out);
  const std::string ds_name = "METR-LA-S";
  const std::string model = "Graph-WaveNet";
  const std::filesystem::path work = std::filesystem::current_path() / ".bench_work";
  std::filesystem::create_directories(work);
  const std::string ckpt = (work / ("serve_hot_" + std::to_string(config.seed) + ".ckpt")).string();

  std::unique_ptr<HotState> state;
  const double setup_s = RepeatedSetup<std::unique_ptr<HotState>>(
      [&] {
        auto s = std::make_unique<HotState>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            BuildDataset(ds_name, spans, &s->data_build_s));
        const tb::data::DatasetSplits splits = s->dataset->Splits();
        tb::exec::ExecutionContext setup_ctx({kSetupThreads, false});
        tb::exec::ExecutionContext::Bind bind(&setup_ctx);

        // Train Graph-WaveNet so that serving it is worth more than the
        // training-free fallback, and check that it is.
        auto gwn = tb::models::CreateModel(
            model, tb::models::MakeModelContext(*s->dataset, kModelSeed));
        {
          SpanRecorder::Scope span(spans, "eval.TrainModel/" + model);
          tb::eval::TrainConfig train;
          train.epochs = 1;
          train.batch_size = kBucket;
          train.max_batches_per_epoch = kHotTrainBatches;
          train.learning_rate = kHotLearningRate;
          train.seed = StreamSeed(config.seed, 2);  // batch order
          train.exec = &setup_ctx;
          RequireOk(tb::eval::TrainModel(gwn.get(), *s->dataset, train).status,
                    "train " + model);
        }
        RequireOk(tb::nn::SaveCheckpoint(*gwn, ckpt), "save checkpoint");

        s->registry = std::make_unique<serve::ModelRegistry>();
        {
          SpanRecorder::Scope span(spans, "serve.registry.Load/HistoricalAverage");
          RequireOk(s->registry->Load(Spec("HistoricalAverage", *s->dataset, ds_name)),
                    "load HistoricalAverage");
        }
        {
          SpanRecorder::Scope span(spans, "serve.registry.Load/" + model);
          serve::ModelSpec spec = Spec(model, *s->dataset, ds_name);
          spec.checkpoint_path = ckpt;
          spec.precision = tb::plan::Precision::kBf16;
          RequireOk(s->registry->Load(spec), "load " + model);
        }
        std::filesystem::remove(ckpt);
        const serve::LoadedModelPtr served = s->registry->Find(model, ds_name);
        s->compile_s = WarmBuckets(*served, *s->dataset, {kBucket, 4, 2, 1}, spans);

        // Score what is served (the bf16 plans and the fallback) on every
        // kHotCheckStride-th test window.
        SpanRecorder::Scope span(spans, "check.served_vs_fallback");
        const serve::LoadedModelPtr fallback = s->registry->FindFallback(ds_name);
        MaeAccumulator gwn_mae, ha_mae;
        std::vector<int64_t> idx;
        for (int64_t w = splits.test_begin; w < splits.test_end; w += kHotCheckStride) {
          idx.push_back(w);
          if (static_cast<int64_t>(idx.size()) == kBucket || w + kHotCheckStride >= splits.test_end) {
            const tb::data::Batch batch = s->dataset->MakeBatch(idx);
            gwn_mae.Add(served->Predict(batch.x), batch.y);
            ha_mae.Add(fallback->Predict(batch.x), batch.y);
            idx.clear();
          }
        }
        s->gwn_mae = gwn_mae.Mae();
        s->ha_mae = ha_mae.Mae();
        return s;
      },
      &state);
  std::error_code ignored;
  std::filesystem::remove(work, ignored);  // only if empty
  const tb::data::TrafficDataset& dataset = *state->dataset;
  const tb::data::DatasetSplits splits = dataset.Splits();
  const serve::LoadedModelPtr gwn = state->registry->Find(model, ds_name);
  const serve::LoadedModelPtr ha = state->registry->FindFallback(ds_name);
  ++out.attempted;  // the set-up check below
  if (!(state->gwn_mae < state->ha_mae)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "setup: trained %s MAE %.4f does not beat "
                  "HistoricalAverage %.4f", model.c_str(), state->gwn_mae, state->ha_mae);
    out.Fail(buf);
  } else if (gwn->plan_precision() != tb::plan::Precision::kBf16 || !gwn->plans_active()) {
    out.Fail("setup: " + model + " is not served from bf16 plans: " + gwn->plan_summary());
  }
  if (!out.correct) ++out.failed;

  serve::ServerOptions options;
  options.workers = 3;
  options.threads_per_worker = 1;
  options.batch.max_batch_size = kBucket;
  options.admission.enabled = true;
  options.cache_capacity = kHotCacheCapacity;

  // One phase on a fresh server. Tier 0 and tier 1 answers must equal a
  // batch-of-1 bf16 plan Predict of the window; tier 2 answers must equal
  // HistoricalAverage's Predict.
  const int64_t pool = splits.test_end - splits.test_begin;
  std::map<std::pair<int64_t, bool>, tb::Tensor> expected;
  int64_t request_ids = 0;
  struct Phase {
    std::vector<Answer> answers;
    std::vector<int64_t> windows;
    serve::LatencySummary summary;
    serve::ResponseCacheStats cache;
    double server_cpu_s = 0.0;
  };
  auto run_phase = [&](const char* name, double rate, int64_t n, uint64_t stream) {
    // The "latest window" advances so that a phase walks the whole test
    // split once.
    const std::vector<HotRequest> schedule =
        SharedWindowSchedule(rate, n, static_cast<double>(n) / rate / static_cast<double>(pool),
                             pool, StreamSeed(config.seed, stream));
    Phase phase;
    std::vector<serve::PredictRequest> requests;
    std::vector<double> due;
    for (const HotRequest& r : schedule) {
      phase.windows.push_back(splits.test_begin + r.window);
      requests.push_back({model, ds_name, WindowOf(dataset, phase.windows.back())});
      due.push_back(r.due);
    }
    const ServerCpu cpu;
    serve::Server server(state->registry.get(), options);
    server.Start();
    {
      SpanRecorder::Scope span(spans, name);
      phase.answers = SendAll(&server, std::move(requests), due, spans, &request_ids);
    }
    server.Stop();
    phase.server_cpu_s = cpu.Seconds();
    phase.summary = server.recorder().Summary();
    phase.cache = server.cache().stats();
    for (size_t i = 0; i < phase.answers.size(); ++i) {
      Answer& a = phase.answers[i];
      if (a.ok) {
        const bool fallback = a.response.tier == 2;
        auto [it, fresh] = expected.try_emplace({phase.windows[i], fallback});
        if (fresh) {
          it->second =
              (fallback ? ha : gwn)->Predict(dataset.MakeBatch({phase.windows[i]}).x);
        }
        if (!BitEqual(a.response.prediction, it->second)) {
          out.Fail("tier " + std::to_string(a.response.tier) +
                   " answer differs from its reference");
          a.ok = false;
        }
      }
      if (!a.ok) ++out.failed;
    }
    out.attempted += static_cast<int64_t>(phase.answers.size());
    std::printf("serve_hot: %s at %.0f/s | %zu requests | tiers %lld/%lld/%lld | cache "
                "hits %lld misses %lld | server cpu %.3f s | %s\n",
                name, rate, phase.answers.size(),
                static_cast<long long>(phase.summary.tier0),
                static_cast<long long>(phase.summary.tier1),
                static_cast<long long>(phase.summary.tier2),
                static_cast<long long>(phase.cache.hits),
                static_cast<long long>(phase.cache.misses), phase.server_cpu_s,
                LoopHealth(phase.answers).c_str());
    return phase;
  };

  // Percentiles over the reference phase's tier-0 answers and failures.
  const Phase reference =
      run_phase("phase/reference", kHotReferenceRate, MinSamplesFor(99), 10);
  std::vector<double> tier0_ms;
  int64_t tier0_answers = 0;
  for (const Answer& a : reference.answers) {
    if (!a.ok || a.response.tier == 0) {
      tier0_ms.push_back(a.ok ? a.latency_s * 1e3 : INFINITY);
    }
    if (a.ok && a.response.tier == 0) ++tier0_answers;
  }
  const Phase overload = run_phase("phase/overload", kHotRate, kHotOverloadRequests, 20);

  MaeAccumulator mae;
  int64_t in_slo = 0;
  for (size_t i = 0; i < overload.answers.size(); ++i) {
    const Answer& a = overload.answers[i];
    if (!a.ok) continue;
    mae.Add(a.response.prediction, TruthOf(dataset, overload.windows[i]));
    if (a.latency_s * 1e3 <= options.admission.slo_ms) ++in_slo;
  }
  const double span_s = static_cast<double>(overload.answers.size()) / kHotRate;
  Summarize(&out, setup_s, static_cast<double>(tier0_answers) / reference.server_cpu_s,
            mae.Mae());
  std::printf("serve_hot: served MAE %.4f and goodput %.1f/s within the %.0f ms SLO "
              "under overload | set-up check on every %lldth test window: %s %.4f, "
              "HistoricalAverage %.4f\n",
              mae.Mae(), static_cast<double>(in_slo) / span_s, options.admission.slo_ms,
              static_cast<long long>(kHotCheckStride), model.c_str(), state->gwn_mae,
              state->ha_mae);

  if (config.trace) {
    out.metrics["data.build_s"] = state->data_build_s;
    out.metrics["serve.latency_p50_ms"] = NearestRank(tier0_ms, 50);
    out.metrics["serve.latency_p99_ms"] = NearestRank(tier0_ms, 99);
    RecordQueueLayers(reference.summary, reference.answers, &out);
    RecordLadderLayers(overload.summary, overload.cache, &out);
    out.metrics["plan." + model + ".compile_s"] = state->compile_s;
    tb::exec::ExecutionContext profiling({options.threads_per_worker, true});
    const KernelSnapshot before = KernelSnapshot::Take(profiling);
    constexpr int kReplays = 20;
    RecordPlanReplay(*gwn, dataset, kReplays, &profiling, spans, &out);
    RecordKernelMetrics(before, KernelSnapshot::Take(profiling), kReplays, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------

Outcome RunCityScale(const RunConfig& config, SpanRecorder* spans) {
  Outcome out;
  if (config.trace) ZeroPerLayer(&out);
  const std::string ds_name = "SYNTH-2K";
  const std::string model = "STSGCN";

  std::unique_ptr<Registry> state;
  const double setup_s = RepeatedSetup<std::unique_ptr<Registry>>(
      [&] {
        auto s = std::make_unique<Registry>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            BuildDataset(ds_name, spans, &s->data_build_s));
        s->registry = std::make_unique<serve::ModelRegistry>();
        tb::exec::ExecutionContext setup_ctx({kSetupThreads, false});
        tb::exec::ExecutionContext::Bind bind(&setup_ctx);
        {
          SpanRecorder::Scope span(spans, "serve.registry.Load/" + model);
          RequireOk(s->registry->Load(Spec(model, *s->dataset, ds_name)),
                    "load " + model);
        }
        s->compile_s[model] = WarmBuckets(*s->registry->Find(model, ds_name),
                                           *s->dataset, {kBucket}, spans);
        return s;
      },
      &state);
  const tb::data::TrafficDataset& dataset = *state->dataset;
  const tb::data::DatasetSplits splits = dataset.Splits();
  const serve::LoadedModelPtr entry = state->registry->Find(model, ds_name);

  serve::ServerOptions options;
  options.workers = 1;
  options.threads_per_worker = 2;
  options.batch.max_batch_size = kBucket;
  options.batch.max_queue_delay_ms = kCityQueueDelayMs;
  const ServerCpu cpu;
  serve::Server server(state->registry.get(), options);
  server.Start();

  const int64_t pool = splits.test_end - splits.test_begin;
  const int64_t first = static_cast<int64_t>(
      SplitMix64(StreamSeed(config.seed, 10)).Below(static_cast<uint64_t>(pool)));
  std::vector<Answer> answers;
  std::vector<int64_t> windows;
  int64_t request_ids = 0;
  const auto start = Clock::now();
  double loop_s = 0.0;
  do {
    std::vector<serve::PredictRequest> requests;
    for (int64_t i = 0; i < kBucket; ++i) {
      const int64_t k = static_cast<int64_t>(windows.size());
      const int64_t w = splits.test_begin + (first + k * kCityWindowStride) % pool;
      windows.push_back(w);
      requests.push_back({model, ds_name, WindowOf(dataset, w)});
    }
    // Closed loop: the next micro-batch is issued when this one is answered,
    // so every request is due when its burst is issued.
    std::vector<Answer> batch = SendAll(&server, std::move(requests),
                                        std::vector<double>(kBucket, 0.0), spans,
                                        &request_ids);
    for (Answer& a : batch) answers.push_back(std::move(a));
    loop_s = std::chrono::duration<double>(Clock::now() - start).count();
  } while (loop_s < config.seconds);
  server.Stop();
  const double server_cpu_s = cpu.Seconds();

  // Every answer must be tier 0; sampled ones must equal the eager forward
  // of their window. Accuracy is taken over the first kCityMaeAnswers
  // answers only, so it does not change with how many bursts a run fits.
  MaeAccumulator mae;
  SplitMix64 check_pick(StreamSeed(config.seed, 20));
  std::vector<bool> check(answers.size(), false);
  for (int64_t c = 0; c < kCityChecks; ++c) check[check_pick.Below(answers.size())] = true;
  for (size_t i = 0; i < answers.size(); ++i) {
    Answer& a = answers[i];
    if (a.ok && a.response.tier != 0) {
      out.Fail("tier " + std::to_string(a.response.tier) + " answer with admission off");
      a.ok = false;
    }
    if (a.ok && check[i]) {
      SpanRecorder::Scope span(spans, "check.PredictReference");
      if (!BitEqual(a.response.prediction,
                    entry->PredictReference(dataset.MakeBatch({windows[i]}).x))) {
        out.Fail("served answer differs from PredictReference");
        a.ok = false;
      }
    }
    if (!a.ok) {
      ++out.failed;
    } else if (static_cast<int64_t>(i) < kCityMaeAnswers) {
      mae.Add(a.response.prediction, TruthOf(dataset, windows[i]));
    }
  }
  out.attempted += static_cast<int64_t>(answers.size());
  const double ok = static_cast<double>(out.attempted - out.failed);
  const std::vector<double> latencies = LatenciesMs(answers);
  Summarize(&out, setup_s, ok / server_cpu_s, mae.Mae());
  const serve::LatencySummary sum = server.recorder().Summary();
  std::printf("city_scale: %zu requests in %.2f s, server cpu %.3f s | mean batch %.2f | "
              "batch compute p50 %.1f ms | plan %s\n",
              answers.size(), loop_s, server_cpu_s, sum.mean_batch_size,
              sum.batch_p50 * 1e3, entry->plan_summary().c_str());

  if (config.trace) {
    out.metrics["data.build_s"] = state->data_build_s;
    out.metrics["serve.latency_p50_ms"] = NearestRank(latencies, 50);
    out.metrics["serve.latency_p99_ms"] = NearestRank(latencies, 99);
    RecordQueueLayers(server.recorder().Summary(), answers, &out);
    RecordLadderLayers(server.recorder().Summary(), server.cache().stats(), &out);
    out.metrics["plan." + model + ".compile_s"] = state->compile_s[model];
    tb::exec::ExecutionContext profiling({options.threads_per_worker, true});
    const KernelSnapshot before = KernelSnapshot::Take(profiling);
    constexpr int kReplays = 2;
    RecordPlanReplay(*entry, dataset, kReplays, &profiling, spans, &out);
    RecordKernelMetrics(before, KernelSnapshot::Take(profiling), kReplays, &out);
  }
  return out;
}

}  // namespace perfbench
