#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory spans recorded by the benchmark around its calls into each
// layer of the library. Spans are kept in memory while the workload runs
// and written out once at exit, so tracing adds no I/O to the measured
// phase. A disabled recorder records nothing, which keeps untraced runs
// free of tracing cost. Not thread-safe: only the benchmark's driving
// thread records.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;   // id of the span that caused this one, or -1
  int64_t request = -1;  // shared by all spans of one request, or -1
  double start = 0.0;    // seconds since the recorder was created
  double end = 0.0;
};

/// Per-name aggregate: total time, and self time (each span's duration
/// minus the part of it that its child spans cover).
struct LayerTime {
  std::string name;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since construction (the time base of every span).
  double Now() const;
  /// Converts a steady-clock time point to the recorder's time base.
  double At(std::chrono::steady_clock::time_point t) const;

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent = -1, int64_t request = -1);

  /// RAII span from construction to destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, int64_t parent = -1,
          int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Id the span will have, for use as a parent by nested spans.
    int64_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    std::string name_;
    int64_t parent_;
    int64_t request_;
    int64_t id_;
    double start_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Aggregates by span name, sorted by descending self time.
  std::vector<LayerTime> LayerTimes() const;

  /// Writes the spans as a JSON array of objects (name, id, parent,
  /// request, start_s, end_s). Returns false when the file cannot be written.
  bool Dump(const std::string& path) const;

 private:
  int64_t Reserve() { return enabled_ ? next_id_++ : -1; }
  void Insert(Span span);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Self time of one span: its duration minus the union of its children's
/// intervals clipped to it. Exposed for tests.
double SelfTime(const Span& span, const std::vector<const Span*>& children);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
