// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed around the benchmark's own calls into the
// library's public functions (no instrumentation inside the library).
// Each span has a name, start, end, parent and the id of the operation it
// belongs to (-1 for set-up). Nothing is written until the run ends.

#ifndef E2E_BENCH_TRACE_H_
#define E2E_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;
  int64_t op;
  int parent;  // index into the span list, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Operations are traced only while active; an inactive (or disabled)
  /// tracer records nothing, so untraced operations pay one branch.
  void set_active(bool active) { active_ = enabled_ && active; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when nothing is recorded.
  int Open(const char* name, int64_t op) {
    if (!active_) return -1;
    spans_.push_back({name, op, open_, Now(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void Close(int span) {
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].end_ns = Now();
    open_ = spans_[static_cast<size_t>(span)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span in milliseconds, grouped by span name: its
  /// duration minus the part its children cover (children never overlap,
  /// the benchmark is one closed-loop client).
  std::map<std::string, std::vector<double>> SelfTimesMs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6);
    }
    return out;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  bool active_ = false;
  Clock::time_point epoch_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), span_(tracer->Open(name, op)) {}
  ~ScopedSpan() { tracer_->Close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace e2e

#endif  // E2E_BENCH_TRACE_H_
