#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const { return At(std::chrono::steady_clock::now()); }

double SpanRecorder::At(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

int64_t SpanRecorder::Add(const std::string& name, double start, double end,
                          int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  const int64_t id = next_id_++;
  Insert({name, id, parent, request, start, end});
  return id;
}

void SpanRecorder::Insert(Span span) { spans_.push_back(std::move(span)); }

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           int64_t parent, int64_t request)
    : recorder_(recorder),
      name_(std::move(name)),
      parent_(parent),
      request_(request),
      id_(recorder->Reserve()),
      start_(recorder->enabled() ? recorder->Now() : 0.0) {}

SpanRecorder::Scope::~Scope() {
  if (!recorder_->enabled()) return;
  recorder_->Insert({name_, id_, parent_, request_, start_, recorder_->Now()});
}

double SelfTime(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span* child : children) {
    const double a = std::max(child->start, span.start);
    const double b = std::min(child->end, span.end);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (const auto& [a, b] : covered) {
    if (a > cur_b) {
      if (cur_b > cur_a) union_s += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) union_s += cur_b - cur_a;
  return std::max(0.0, (span.end - span.start) - union_s);
}

std::vector<LayerTime> SpanRecorder::LayerTimes() const {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> by_name;
  static const std::vector<const Span*> kNone;
  for (const Span& s : spans_) {
    LayerTime& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_s += s.end - s.start;
    auto it = children.find(s.id);
    row.self_s += SelfTime(s, it == children.end() ? kNone : it->second);
  }
  std::vector<LayerTime> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_s > b.self_s;
  });
  return rows;
}

bool SpanRecorder::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.start, s.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
