#include "spans.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace e2ebench {

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

int SpanRecorder::open(std::string name, std::int64_t request) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::total_us(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_)
    if (s.name == name) total += s.dur_ns();
  return static_cast<double>(total) / 1e3;
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.dur_ns()) / 1e3);
  return out;
}

double SpanRecorder::unattributed_us(const std::string& name) const {
  std::vector<std::uint64_t> children(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.dur_ns();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && spans_[i].dur_ns() > children[i])
      total += spans_[i].dur_ns() - children[i];
  return static_cast<double>(total) / 1e3;
}

bool SpanRecorder::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& other) const {
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (spans_[a].start_ns != spans_[b].start_ns)
      return spans_[a].start_ns < spans_[b].start_ns;
    return spans_[a].dur_ns() > spans_[b].dur_ns();
  });

  refbmc::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("name", "thread_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 0);
  w.key("args");
  w.begin_object();
  w.kv("name", "benchmark");
  w.end_object();
  w.end_object();
  for (const std::size_t i : order) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(s.start_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.dur_ns()) / 1e3);
    w.kv("pid", 1);
    w.kv("tid", 0);
    w.key("args");
    w.begin_object();
    w.kv("span", static_cast<std::uint64_t>(i));
    w.kv("parent", s.parent);
    w.kv("request", static_cast<double>(s.request));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.kv("tracks", std::uint64_t{1});
  w.kv("events", static_cast<std::uint64_t>(spans_.size()));
  w.kv("dropped_events", std::uint64_t{0});
  for (const auto& [k, v] : other) w.kv(k, v);
  w.end_object();
  w.end_object();
  return w.write_file(path);
}

}  // namespace e2ebench
