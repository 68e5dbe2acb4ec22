// Spans recorded by the benchmark around its calls into each refbmc
// layer (traced runs only): name, start, end, parent span and request
// id, kept in memory and written at exit as Chrome trace-event JSON in
// the document shape obs/export.hpp emits, so the same viewers and the
// same invariant checks load it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;           // index into the recorder's spans, -1: root
  std::int64_t request = -1;  // the request this span served
  std::uint64_t dur_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::int64_t request);
  void close(int index);

  /// Sum of the durations of every span called `name`, in µs.
  double total_us(const std::string& name) const;
  /// Durations of every span called `name`, in µs.
  std::vector<double> durations_us(const std::string& name) const;
  /// Sum over spans called `name` of (duration - time covered by their
  /// direct children), in µs: the part no layer span accounts for.
  double unattributed_us(const std::string& name) const;

  /// Writes {"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
  /// {...}}: one thread_name metadata record, then every span as a
  /// complete event (ph "X") sorted by start, longer first on ties.
  /// `other` adds string members to otherData (host, workload, seed).
  bool write_chrome(const std::string& path,
                    const std::vector<std::pair<std::string, std::string>>&
                        other) const;

 private:
  std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII span; a null recorder records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t request)
      : rec_(rec), index_(rec != nullptr ? rec->open(name, request) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace e2ebench
