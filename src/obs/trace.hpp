// Race-wide tracing: per-thread ring buffers of timestamped events.
//
// Why a bespoke layer: the portfolio runs N solvers concurrently, and the
// questions we need answered — where does depth k's time go under each
// ordering policy, how late do losers actually stop after the verdict,
// when do rank refreshes land relative to restarts — are *timeline*
// questions.  End-of-run counters (DepthStats, RaceResult) cannot answer
// them; a trace can, and Perfetto / chrome://tracing already draw
// timelines, so we only need to record and export (obs/export.hpp).
//
// Design constraints, in order:
//
//   1. Near-zero cost when off.  Recording is gated on one relaxed
//      atomic-bool load (trace_active()); every instrumentation site is
//      `if (trace_active()) …`, so a disabled build pays one predictable
//      branch.  Compiling with -DREFBMC_TRACE=0 turns trace_active() into
//      `false` and the sites fold away entirely.
//   2. No cross-thread contention when on.  Each thread records into its
//      own fixed-size ring (TraceBuffer) — no locks, no shared cache
//      lines on the record path.  The session mutex is only taken once
//      per thread (buffer registration) and at collection.
//   3. Bounded memory.  Rings overwrite their oldest entry when full and
//      count what was lost (drop-and-count); a trace is never the thing
//      that OOMs a race.
//
// Collection contract: trace_end() (and trace_dump()) read every ring,
// including rings owned by other threads.  Writers must be quiescent —
// in practice collection happens after the scheduler joined its
// threads, which is also the only ordering that makes the timeline
// complete.  The calling thread's own ring is always safe.
//
// Timestamps are microseconds on std::chrono::steady_clock, anchored at
// the first clock query of the process, so every thread's events share
// one monotonic axis (what Chrome's `ts` field requires).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// Compile-out switch: -DREFBMC_TRACE=0 removes every instrumentation
// site (trace_active() becomes constant false and dead-code elimination
// does the rest).  The library itself still links, so a mixed build
// cannot ODR-clash.
#ifndef REFBMC_TRACE
#define REFBMC_TRACE 1
#endif

namespace refbmc::obs {

/// What happened.  One enum across all layers so a TraceEvent stays a
/// fixed-size POD; the exporter maps kinds to Chrome names/categories.
enum class EventKind : std::uint16_t {
  // bmc: per-depth phase spans (BmcEngine::run).
  SpanDepth = 0,   // prepare..solve of one depth          value = sat::Result
  SpanEncode,      // session->prepare(k)                  value = cnf clauses
  SpanSimplify,    // encoder fold/strash share of new frames (attribution)
  SpanSolve,       // sat::Solver::solve(k)                value = conflicts
  TapeEncode,      // SharedTape frame encoding            depth = frame
  // sat: solver milestones (all at decision-level-0 boundaries).
  Restart,         // value = restart count
  ReduceDb,        // value = learned clauses before reduction
  ImportBatch,     // span: one level-0 import drain       value = clauses attached
  ExportBatch,     // value = clauses exported since the previous boundary
  RankRefresh,     // span: mid-solve rank projection      value = source epoch
  DynamicFallback, // dynamic policy switched to VSIDS     value = decisions
  // portfolio: job lifecycle and exchange.
  JobSubmit,       // value = entrant/job index
  JobStart,        // value = entrant/job index
  JobVerdict,      // value = winning entrant index
  CancelRequest,   // winner raised the stop flag          value = winner index
  JobStop,         // entrant thread wound down            value = entrant index
  PoolPublish,     // lemma accepted by the shared pool    value = sequence no.
  PoolClose,       // pool epoch closed (race decided)
  RankPublish,     // core merged into SharedRankSource    depth = from depth,
                   //                                      value = new epoch
  // preprocessing / inprocessing (PR 7).
  SpanPreprocess,  // tape CNF simplification for one depth value = clauses in
  SpanVivify,      // one restart-boundary vivify pass     value = clauses shortened
};

/// Chrome-facing name of a kind ("encode", "restart", ...).
const char* to_string(EventKind kind);
/// Chrome category: "bmc", "sat" or "race".
const char* category(EventKind kind);
/// Kinds recorded as complete spans (ph "X"); the rest are instants.
bool is_span(EventKind kind);

/// One record.  Fixed-size POD — rings are arrays of these, recording is
/// a handful of stores.  `depth` is the BMC depth / frame (-1 when not
/// applicable); `value` is kind-specific (see EventKind).
struct TraceEvent {
  std::uint64_t ts_us = 0;   // steady-clock µs (span: start time)
  std::uint32_t dur_us = 0;  // spans only; 0 for instants
  EventKind kind = EventKind::SpanDepth;
  std::int16_t depth = -1;
  std::int64_t value = 0;
};

/// Single-writer ring of TraceEvents.  The owning thread records;
/// anybody may snapshot once the writer is quiescent.  When full the
/// oldest entry is overwritten and counted as dropped — the newest
/// window survives, which is the useful end of a truncated timeline.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Owner thread only.
  void record(const TraceEvent& e) {
    slots_[static_cast<std::size_t>(
        head_.load(std::memory_order_relaxed) % capacity_)] = e;
    head_.fetch_add(1, std::memory_order_release);
  }

  std::size_t capacity() const { return capacity_; }
  /// Events recorded over the buffer's lifetime (including dropped ones).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Oldest entries overwritten before anybody read them.
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// The retained window, oldest first.  Requires a quiescent writer.
  std::vector<TraceEvent> snapshot() const;

 private:
  const std::uint64_t capacity_;
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// One thread's collected timeline.
struct TrackDump {
  std::string name;      // thread track label ("static", "worker-0", ...)
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;  // oldest first
};

/// Everything a session recorded, one track per participating thread.
struct TraceDump {
  std::vector<TrackDump> tracks;
  /// Retained events across all tracks (dropped ones counted separately).
  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;
};

struct TraceConfig {
  /// Per-thread ring capacity in events (--trace-buffer-kb converts with
  /// sizeof(TraceEvent)).
  std::size_t buffer_events = 16384;
};

namespace detail {
#if REFBMC_TRACE
extern std::atomic<bool> g_trace_on;
#endif
}  // namespace detail

/// Microseconds on the process-wide steady-clock axis.  Always available
/// (the scheduler measures cancel latency with it even when tracing is
/// off or compiled out).
std::uint64_t monotonic_now_us();

/// Is a trace session recording?  THE hot-path gate: one relaxed load.
#if REFBMC_TRACE
inline bool trace_active() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}
#else
constexpr bool trace_active() { return false; }
#endif

/// Starts a session: subsequent trace_record*() calls land in per-thread
/// rings of cfg.buffer_events entries.  A second begin while active is a
/// no-op (first session wins — nested benches don't clobber a CLI trace).
/// Returns whether a new session actually started.
bool trace_begin(const TraceConfig& cfg = {});

/// Stops recording and collects every thread's ring.  See the collection
/// contract above: worker threads must have been joined.
TraceDump trace_end();

/// Collects without stopping (mid-run flush for long sessions); same
/// quiescence contract.
TraceDump trace_dump();

/// Labels the calling thread's track ("static", "worker-3", ...).
/// Threads that record without naming themselves get "thread-N".
void trace_set_thread_track(const std::string& name);

/// Records an instant event on the calling thread's ring.
void trace_record(EventKind kind, int depth = -1, std::int64_t value = 0);

/// Records a complete span (start + duration known by the caller).
void trace_record_span(EventKind kind, std::uint64_t ts_us,
                       std::uint64_t dur_us, int depth = -1,
                       std::int64_t value = 0);

/// RAII span: times construction..finish() (or destruction) and records
/// one complete-span event.  Arms only when a session is active, so a
/// disabled run pays the trace_active() branch and nothing else.
class TraceSpan {
 public:
  explicit TraceSpan(EventKind kind, int depth = -1, std::int64_t value = 0) {
    if (trace_active()) {
      kind_ = kind;
      depth_ = depth;
      value_ = value;
      start_ = monotonic_now_us();
      armed_ = true;
    }
  }
  ~TraceSpan() { finish(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Updates the payload before the span is recorded (e.g. a result
  /// computed inside the span).
  void set_value(std::int64_t v) { value_ = v; }

  /// Ends the span now (idempotent; the destructor calls it).
  void finish() {
    if (!armed_) return;
    armed_ = false;
    trace_record_span(kind_, start_, monotonic_now_us() - start_, depth_,
                      value_);
  }

 private:
  bool armed_ = false;
  EventKind kind_ = EventKind::SpanDepth;
  std::int16_t depth_ = -1;
  std::int64_t value_ = 0;
  std::uint64_t start_ = 0;
};

}  // namespace refbmc::obs

// Macro layer: instrumentation sites use these so -DREFBMC_TRACE=0
// removes them wholesale (no argument evaluation, no branch).
#if REFBMC_TRACE
#define REFBMC_TRACE_EVENT(kind, depth, value)                      \
  do {                                                              \
    if (::refbmc::obs::trace_active())                              \
      ::refbmc::obs::trace_record((kind), (depth), (value));        \
  } while (0)
#define REFBMC_TRACE_SPAN(var, kind, depth) \
  ::refbmc::obs::TraceSpan var((kind), (depth))
#else
#define REFBMC_TRACE_EVENT(kind, depth, value) \
  do {                                         \
  } while (0)
#define REFBMC_TRACE_SPAN(var, kind, depth) \
  ::refbmc::obs::TraceSpan var((kind), (depth))
#endif
