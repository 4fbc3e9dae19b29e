// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into retrace's layers (compile,
// analyses, plan building, recording, execution, replay): name,
// layer, start, end, parent span and operation id. Nothing is written
// while the benchmark runs; WriteChromeTrace dumps every span at the end
// in Chrome trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open directly.
//
// Single-threaded by design: the benchmark calls into retrace from one
// thread (worker threads live inside the calls).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint64_t op = 0;
  };

  // Off: Begin/End do nothing, so untraced runs pay one branch per span.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Every span opened until the next NewOp belongs to this operation.
  void NewOp() { ++op_; }

  int Begin(std::string name, std::string layer) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{std::move(name), std::move(layer), NowSeconds(), 0.0, current_, op_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int index) {
    if (index < 0) {
      return;
    }
    spans_[index].end = NowSeconds();
    current_ = spans_[index].parent;
  }

  // Counts recorded at the same boundaries as the spans.
  void Add(const std::string& counter, double value) {
    if (enabled_) {
      counters_[counter] += value;
    }
  }
  double Counter(const std::string& counter) const {
    const auto it = counters_.find(counter);
    return it == counters_.end() ? 0.0 : it->second;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Summed duration and count of the spans called `name`.
  double TotalSeconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) {
        total += span.end - span.start;
      }
    }
    return total;
  }
  size_t Count(const std::string& name) const {
    size_t count = 0;
    for (const Span& span : spans_) {
      count += span.name == name ? 1 : 0;
    }
    return count;
  }

  // Chrome trace-event JSON: one complete event per span, microsecond
  // timestamps, the parent index and operation id in `args`.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%llu}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent, static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  int current_ = -1;
  uint64_t op_ = 0;
};

Tracer& GlobalTracer();

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::string layer)
      : index_(GlobalTracer().Begin(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { GlobalTracer().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
