// e2e_bench: the end-to-end benchmark of refbmc over its public API.
//
//   e2e_bench --workload std-suite|search-heavy|service-small
//              --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Every workload is a closed loop from one caller.  A run generates the
// workload's requests from --seed (set-up, repeated and reported as a
// median), then serves the request list in passes until --seconds have
// elapsed, the workload's minimum pass count is reached and every
// reported percentile has ten samples beyond it.  Races use the paper's
// three orderings (one thread each); every other option keeps its
// default unless the workload pins it, so a changed default is measured.
// Each verdict is graded against the answer key (workloads.hpp) and
// every counterexample is replayed on sim::Simulator; one wrong verdict
// fails the run.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates
// untraced and traced passes; the traced ones record spans around each
// layer call (spans.hpp) and, on the first traced pass, re-solve every
// solved request on one thread through the bmc/sat/sim entry points,
// giving the per-layer metrics.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/refbmc.hpp"
#include "bmc/session.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/aiger.hpp"
#include "portfolio/scheduler.hpp"
#include "service/job_server.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define E2E_COMPILER "clang " __clang_version__
#else
#define E2E_COMPILER "gcc " __VERSION__
#endif

namespace e2ebench {
namespace {

using namespace refbmc;

// ---- fixed workload parameters ---------------------------------------------------

// The paper's three orderings (Table 1's comparison): one race thread each.
const std::vector<std::string> kPolicies = {"baseline", "static", "dynamic"};
constexpr double kBudgetSec = 20.0;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kServicePassRequests = 500;
constexpr double kZipfExponent = 0.8;
constexpr std::size_t kServiceProbeRequests = 200;
// Stop starting passes past this, so a run exits well inside 180 s.
constexpr double kHardCapSec = 120.0;
// Closed-loop callers per workload.  One: with three race threads per
// worker, a second caller would exceed a 4-CPU host (see run()).
constexpr int kClients = 1;

struct Workload {
  std::string name;
  int workers = 0;      // JobServer executors; 0: api::check called directly
  bool incremental = false;
  // Untraced passes a run serves at least; the RSS figure is the median
  // per-pass peak over (at most) this many, so it covers the same work
  // whatever the speed (the service's job table grows with every
  // request served).
  int min_passes = 1;
  // check_tail_ms: the highest percentile a run always has ten samples
  // beyond — p99 for the service's thousands of requests, p90 for the
  // suites' ~200.
  double tail_q = 0.9;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"std-suite", 0, false, 6, 0.9},
      {"search-heavy", 0, true, 8, 0.9},
      {"service-small", 1, false, 12, 0.99},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") throw UsageError("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-file") {
        a.trace_file = v;
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value '" + v + "' for " + flag);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  if (!(a.seconds > 0.0)) throw UsageError("--seconds must be positive");
  return a;
}

// ---- host ------------------------------------------------------------------------

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// Timing an unoptimized or instrumented build measures the build, not
// the program.
void refuse_unsuitable_build() {
#if !defined(NDEBUG)
  throw UsageError("refusing a build with assertions on (Debug); build Release");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  throw UsageError("refusing a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  throw UsageError("refusing a sanitizer build");
#endif
#endif
  const std::string type = E2E_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    throw UsageError("refusing build type '" + type + "'");
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// Starts a fresh peak-RSS window: hands freed heap back to the kernel
// (the race threads' malloc arenas keep it otherwise, so the peak would
// depend on which earlier pass fragmented them) and resets VmHWM to the
// current RSS.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- verdicts --------------------------------------------------------------------

// Replays `trace` on the simulator: the bad signal must first fire at
// frame `depth` (BMC checks depths in order, so an earlier firing would
// mean an earlier depth was wrongly reported UNSAT).
bool replay_fires_at(const model::Netlist& net, const bmc::Trace& trace, int depth) {
  if (depth < 0 || trace.inputs.size() != static_cast<std::size_t>(depth) + 1)
    return false;
  const model::Signal bad = net.bad_properties()[0].signal;
  sim::Simulator simulator(net);
  simulator.reset(trace.initial_latches);
  for (int f = 0; f <= depth; ++f) {
    const auto& in = trace.inputs[static_cast<std::size_t>(f)];
    simulator.evaluate(in);
    if (simulator.value(bad)) return f == depth;
    simulator.step(in);
  }
  return false;
}

Observed observe(const api::CheckResult& r, const model::Netlist& net,
                 SpanRecorder* rec, std::int64_t id) {
  Observed o;
  switch (r.status) {
    case api::CheckResult::Status::CounterexampleFound: {
      o.verdict = Verdict::Cex;
      o.cex_depth = r.counterexample_depth;
      ScopedSpan span(rec, "sim.replay", id);
      o.replay_ok = r.counterexample.has_value() &&
                    replay_fires_at(net, *r.counterexample, r.counterexample_depth);
      break;
    }
    case api::CheckResult::Status::BoundReached: o.verdict = Verdict::Bound; break;
    case api::CheckResult::Status::ResourceLimit: o.verdict = Verdict::Limit; break;
  }
  return o;
}

std::vector<bool> bits(const std::string& s) {
  std::vector<bool> out;
  out.reserve(s.size());
  for (const char c : s) out.push_back(c == '1');
  return out;
}

// ---- request state -----------------------------------------------------------------

struct Prepared {
  RequestSet set;
  std::vector<api::CheckRequest> checks;  // one per request, options applied
  std::vector<std::string> frames;        // service: submit frame per request
  std::unique_ptr<ZipfStream> zipf;       // service: request stream
  std::unique_ptr<service::JobServer> server;
  double generate_s = 0.0;
};

api::RaceOptions race_options(int bound, bool incremental) {
  api::RaceOptions o;
  o.policies(kPolicies).max_depth(bound).budget_sec(kBudgetSec);
  if (incremental) o.incremental(true);
  return o;
}

std::string submit_frame(const Request& r, const api::RaceOptions& options) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "submit");
  w.kv("aiger", r.aiger);
  w.kv("bad", std::uint64_t{0});
  w.kv("name", r.name);
  w.kv("wait", false);
  w.key("options");
  service::write_race_options(w, options);
  w.end_object();
  return w.str();
}

RequestSet generate(const Workload& wl, std::uint64_t seed) {
  if (wl.name == "std-suite") return std_suite(seed);
  if (wl.name == "search-heavy") return search_heavy(seed);
  return service_catalogue(seed);
}

// One set-up: generation (answer key included), the per-request check
// objects and, for the service workload, the wire frames, the request
// stream and a started server.
Prepared set_up(const Workload& wl, std::uint64_t seed) {
  Prepared p;
  const Clock::time_point t0 = Clock::now();
  p.set = generate(wl, seed);
  p.generate_s = seconds_since(t0);
  for (const Request& r : p.set.requests) {
    api::CheckRequest c;
    c.net = r.net;
    c.name = r.name;
    c.options = race_options(r.bound, wl.incremental);
    if (wl.workers > 0) p.frames.push_back(submit_frame(r, c.options));
    p.checks.push_back(std::move(c));
  }
  if (wl.workers > 0) {
    p.zipf = std::make_unique<ZipfStream>(p.set.requests.size(), kZipfExponent, seed);
    service::ServerConfig cfg;
    cfg.workers = wl.workers;
    p.server = std::make_unique<service::JobServer>(cfg);
  }
  return p;
}

// ---- one-thread decomposition -------------------------------------------------------

// Counts and times of the decomposed re-solves; counts repeat exactly
// for a given seed (no threads, no exchange).
struct Decomposed {
  std::uint64_t conflicts = 0, propagations = 0, decisions = 0;
  std::uint64_t cnf_clauses = 0;
  std::uint64_t pre_clauses_in = 0, pre_clauses_out = 0;
  double wall_s = 0.0;  // sum of decomposed spans
};

// Re-solves `check` the way one `dynamic` entrant of its race does, with
// no rivals: SharedTape::ensure_depth, the preprocessing stats call,
// session prepare, rank projection, Solver::solve, core publication and
// retire per depth; the counterexample replayed on the simulator.
Observed decompose(const api::CheckRequest& check, SpanRecorder& rec, std::int64_t id,
                   Decomposed& acc) {
  ScopedSpan whole(&rec, "decomposed", id);
  const Clock::time_point t0 = Clock::now();
  const portfolio::ResolvedPortfolio resolved = check.options.resolve();
  const bmc::EngineConfig& eng = resolved.engine;
  std::unique_ptr<bmc::SharedTape> tape;
  std::unique_ptr<bmc::FormulaSession> session;
  {
    ScopedSpan span(&rec, "bmc.setup", id);
    bmc::EncoderOptions enc;
    enc.mode = eng.bad_mode;
    enc.simplify = eng.simplify;
    tape = std::make_unique<bmc::SharedTape>(check.net, 0, enc, eng.preprocess);
    sat::SolverConfig scfg = eng.solver;
    scfg.rank_mode = sat::RankMode::Dynamic;
    scfg.dynamic_switch_divisor = eng.dynamic_switch_divisor;
    scfg.track_cdg = true;
    if (!eng.incremental) scfg.assumption_savepoint = false;
    session = eng.incremental ? bmc::make_incremental_session(*tape, scfg)
                              : bmc::make_scratch_session(*tape, scfg);
  }
  bmc::LocalRankSource rank(eng.weighting);
  const Deadline deadline(kBudgetSec);

  Observed o;
  o.verdict = Verdict::Bound;
  for (int k = 0; k <= eng.max_depth; ++k) {
    {
      ScopedSpan span(&rec, "bmc.encode", id);
      tape->ensure_depth(k);
    }
    if (eng.preprocess.enabled) {
      ScopedSpan span(&rec, "bmc.preprocess", id);
      const bmc::PreprocessStats ps = eng.incremental
                                          ? tape->incremental_preprocess_stats_at(k)
                                          : tape->preprocess_stats_at(k);
      acc.pre_clauses_in += ps.clauses_in;
      acc.pre_clauses_out += ps.clauses_out;
    }
    bmc::FormulaSession::Prepared prep;
    {
      ScopedSpan span(&rec, "bmc.session", id);
      prep = session->prepare(k);
    }
    sat::Solver& solver = *prep.solver;
    acc.cnf_clauses += prep.cnf_clauses;
    {
      ScopedSpan span(&rec, "bmc.rank", id);
      solver.set_variable_rank(rank.project(session->origin(), nullptr));
    }
    solver.set_resource_limits(-1, deadline.remaining_sec());
    const sat::SolverStats before = solver.stats();
    sat::Result res;
    {
      ScopedSpan span(&rec, "sat.solve", id);
      res = solver.solve(prep.assumptions);
    }
    acc.conflicts += solver.stats().conflicts - before.conflicts;
    acc.propagations += solver.stats().propagations - before.propagations;
    acc.decisions += solver.stats().decisions - before.decisions;
    if (res == sat::Result::Sat) {
      o.verdict = Verdict::Cex;
      o.cex_depth = k;
      bmc::Trace trace;
      {
        ScopedSpan span(&rec, "bmc.extract", id);
        trace = bmc::extract_trace(check.net, k, session->origin(), solver);
      }
      ScopedSpan span(&rec, "sim.replay", id);
      o.replay_ok = replay_fires_at(check.net, trace, k);
      break;
    }
    if (res == sat::Result::Unknown) {
      o.verdict = Verdict::Limit;
      break;
    }
    {
      ScopedSpan span(&rec, "bmc.rank", id);
      rank.publish(session->origin(), solver.unsat_core_vars(), k);
    }
    ScopedSpan span(&rec, "bmc.retire", id);
    session->retire(k);
  }
  {
    ScopedSpan span(&rec, "bmc.setup", id);  // tear-down
    session.reset();
    tape.reset();
  }
  acc.wall_s += seconds_since(t0);
  return o;
}

// ---- passes ------------------------------------------------------------------------

// What the traced passes collect besides spans.
struct LayerAcc {
  std::vector<double> cancel_latency_us;
  std::uint64_t lemmas_exported = 0, lemmas_imported = 0, rank_refreshes = 0;
  double race_cpu_s = 0.0, race_wall_s = 0.0;
  std::uint64_t formula_peak_bytes = 0;
  double decomposed_race_s = 0.0;  // raced latency of decomposed requests
  std::vector<double> dispatch_us, queue_ms, run_ms;
  std::uint64_t round_trips = 0, cache_hits = 0;
  Decomposed dec;
};

struct PassOut {
  double wall_s = 0.0;  // sum of the pass's request latencies
  double cpu_s = 0.0;
};

struct RunState {
  Tally tally;
  std::vector<double> latency_ms;                 // every request, every pass
  std::vector<std::vector<double>> per_request_s;  // suite: per request index
};

// A traced direct check: api::check under a span, with the CPU it
// burned and (when `count`, i.e. on the first traced pass, so the totals
// cover one pass) the race-level exchange counters.
api::CheckResult traced_check(const api::CheckRequest& check, SpanRecorder& rec,
                              std::int64_t id, LayerAcc& acc, bool count,
                              double& latency_s) {
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  api::CheckResult r;
  {
    ScopedSpan span(&rec, "api.check", id);
    r = api::check(check);
  }
  latency_s = seconds_since(t0);
  acc.race_cpu_s += cpu_seconds() - cpu0;
  acc.race_wall_s += latency_s;
  if (r.cancel_latency_us > 0)
    acc.cancel_latency_us.push_back(static_cast<double>(r.cancel_latency_us));
  if (count) {
    acc.lemmas_exported += r.clauses_exported;
    acc.lemmas_imported += r.clauses_imported;
    acc.rank_refreshes += r.rank_refreshes;
  }
  acc.formula_peak_bytes = std::max(acc.formula_peak_bytes, r.peak_mem_bytes);
  return r;
}

void traced_front(const Request& req, const api::CheckRequest& check, SpanRecorder& rec,
                  std::int64_t id) {
  {
    ScopedSpan span(&rec, "model.aiger_parse", id);
    const model::Netlist parsed = model::read_aiger_string(req.aiger);
    if (parsed.num_latches() != req.net.num_latches())
      throw std::runtime_error("AIGER round trip changed " + req.name);
  }
  {
    ScopedSpan span(&rec, "api.resolve", id);
    const portfolio::ResolvedPortfolio r = check.options.resolve();
    if (r.policies.size() != kPolicies.size())
      throw std::runtime_error("resolve lost policies");
  }
  ScopedSpan span(&rec, "api.fingerprint", id);
  volatile std::uint64_t fp = api::config_fingerprint(check.options);
  (void)fp;
}

PassOut suite_pass(Prepared& p, RunState& st, SpanRecorder* rec, LayerAcc* acc,
                   bool decompose_now) {
  PassOut out;
  const double cpu0 = cpu_seconds();
  for (std::size_t i = 0; i < p.checks.size(); ++i) {
    const Request& req = p.set.requests[i];
    const api::CheckRequest& check = p.checks[i];
    const auto id = static_cast<std::int64_t>(i);
    double latency_s = 0.0;
    api::CheckResult r;
    std::optional<ScopedSpan> request_span;
    if (rec == nullptr) {
      const Clock::time_point t0 = Clock::now();
      r = api::check(check);
      latency_s = seconds_since(t0);
    } else {
      request_span.emplace(rec, "request", id);
      traced_front(req, check, *rec, id);
      r = traced_check(check, *rec, id, *acc, decompose_now, latency_s);
    }
    st.tally.add(req.answer, observe(r, check.net, rec, id));
    if (rec != nullptr && decompose_now) {
      st.tally.add(req.answer, decompose(check, *rec, id, acc->dec));
      acc->decomposed_race_s += latency_s;
    }
    out.wall_s += latency_s;
    st.latency_ms.push_back(latency_s * 1e3);
    st.per_request_s[i].push_back(latency_s);
  }
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// One submit+wait round trip through the wire dispatcher.
struct RoundTrip {
  double latency_s = 0.0;
  Observed observed;
  bool from_cache = false;
  double queue_s = 0.0, run_s = 0.0;
};

RoundTrip round_trip(service::JobServer& server, const std::string& frame,
                     const Request& req, SpanRecorder* rec, std::int64_t id) {
  RoundTrip rt;
  const Clock::time_point t0 = Clock::now();
  std::string status_text;
  {
    ScopedSpan span(rec, "service.round_trip", id);
    const std::optional<service::JsonValue> sub =
        service::json_parse(service::handle_request(server, frame));
    if (!sub || !sub->get_bool("ok")) return rt;  // Error
    if (!sub->get_bool("accepted")) {
      rt.observed.verdict = Verdict::Rejected;
      rt.latency_s = seconds_since(t0);
      return rt;
    }
    JsonWriter w;
    w.begin_object();
    w.kv("op", "wait");
    w.kv("id", sub->get_uint64("id"));
    w.end_object();
    status_text = service::handle_request(server, w.str());
  }
  rt.latency_s = seconds_since(t0);

  const std::optional<service::JsonValue> resp = service::json_parse(status_text);
  const service::JsonValue* status = resp ? resp->find("status") : nullptr;
  if (status == nullptr) return rt;
  rt.queue_s = status->get_number("queue_sec");
  rt.run_s = status->get_number("run_sec");
  const std::string state = status->get_string("state");
  const service::JsonValue* result = status->find("result");
  if (state != "done" || result == nullptr) {
    rt.observed.verdict = state == "rejected" ? Verdict::Rejected : Verdict::Error;
    return rt;
  }
  rt.from_cache = result->get_bool("from_cache");
  const std::string verdict = result->get_string("verdict");
  if (verdict == "bound") {
    rt.observed.verdict = Verdict::Bound;
  } else if (verdict == "limit") {
    rt.observed.verdict = Verdict::Limit;
  } else if (verdict == "cex") {
    rt.observed.verdict = Verdict::Cex;
    rt.observed.cex_depth = static_cast<int>(result->get_int("counterexample_depth", -1));
    if (const service::JsonValue* t = result->find("trace")) {
      bmc::Trace trace;
      trace.depth = static_cast<int>(t->get_int("depth", -1));
      trace.initial_latches = bits(t->get_string("initial_latches"));
      if (const service::JsonValue* ins = t->find("inputs"))
        for (const service::JsonValue& frame_bits : ins->items())
          trace.inputs.push_back(bits(frame_bits.as_string()));
      ScopedSpan span(rec, "sim.replay", id);
      rt.observed.replay_ok =
          trace.depth == rt.observed.cex_depth &&
          replay_fires_at(req.net, trace, rt.observed.cex_depth);
    }
  }
  return rt;
}

// Records a traced round trip's service-layer figures; true when it was
// served from the cache.
bool record_round_trip(LayerAcc& acc, const RoundTrip& rt) {
  ++acc.round_trips;
  acc.dispatch_us.push_back(std::max(0.0, rt.latency_s - rt.queue_s - rt.run_s) * 1e6);
  acc.queue_ms.push_back(rt.queue_s * 1e3);
  if (rt.from_cache) {
    ++acc.cache_hits;
    return true;
  }
  acc.run_ms.push_back(rt.run_s * 1e3);
  return false;
}

PassOut service_pass(Prepared& p, RunState& st, SpanRecorder* rec, LayerAcc* acc,
                     bool decompose_now) {
  PassOut out;
  const double cpu0 = cpu_seconds();
  for (std::size_t n = 0; n < kServicePassRequests; ++n) {
    const std::size_t key = p.zipf->next();
    const Request& req = p.set.requests[key];
    const auto id = static_cast<std::int64_t>(key);
    std::optional<ScopedSpan> request_span;
    if (rec != nullptr) {
      request_span.emplace(rec, "request", id);
      traced_front(req, p.checks[key], *rec, id);
    }
    const RoundTrip rt = round_trip(*p.server, p.frames[key], req, rec, id);
    st.tally.add(req.answer, rt.observed);
    out.wall_s += rt.latency_s;
    st.latency_ms.push_back(rt.latency_s * 1e3);
    if (rec == nullptr || record_round_trip(*acc, rt)) continue;
    // A miss ran a race inside the server: repeat it directly for the
    // api/portfolio layers, then decompose it.
    double latency_s = 0.0;
    const api::CheckResult r =
        traced_check(p.checks[key], *rec, id, *acc, decompose_now, latency_s);
    st.tally.add(req.answer, observe(r, p.checks[key].net, rec, id));
    if (decompose_now) {
      st.tally.add(req.answer, decompose(p.checks[key], *rec, id, acc->dec));
      acc->decomposed_race_s += latency_s;
    }
  }
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// ---- metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  os << buf;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double percentile_or_throw(const std::vector<double>& v, double q, const char* name) {
  const std::optional<double> p = tail_percentile(v, q);
  if (!p)
    throw std::runtime_error(std::string(name) + ": fewer than 10 samples beyond it (" +
                             std::to_string(v.size()) + " samples)");
  return *p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

int run(const Args& args) {
  refuse_unsuitable_build();
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (w.name == args.workload) wl = &w;
  if (wl == nullptr) throw UsageError("unknown workload '" + args.workload + "'");
  const int nproc = host_nproc();
  const int race_threads = static_cast<int>(kPolicies.size());
  const int threads = race_threads * std::max(wl->workers, 1) + kClients;
  if (threads > nproc)
    throw UsageError("workload " + wl->name + " needs " + std::to_string(threads) +
                     " threads (race threads x workers + clients) but nproc is " +
                     std::to_string(nproc));
  std::cout << "host: nproc=" << nproc << " compiler=\"" << E2E_COMPILER
            << "\" build=" << E2E_BUILD_TYPE << "\n";

  // Set-up, several times; the last one is kept.
  std::vector<double> setup_s, generate_ms;
  Prepared p;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p = Prepared{};  // tears the previous server down first
    const Clock::time_point t0 = Clock::now();
    p = set_up(*wl, args.seed);
    setup_s.push_back(seconds_since(t0));
    generate_ms.push_back(p.generate_s * 1e3);
  }
  bool inputs_ok = true;
  if (wl->name == "std-suite" && args.seed == 1) {
    inputs_ok = p.set.hash == standard_suite_hash();
    std::cout << "std-suite seed 1 reproduces model::standard_suite(): "
              << (inputs_ok ? "yes" : "NO") << "\n";
  }
  std::cout << "workload: " << wl->name << " seed=" << args.seed
            << " requests=" << p.set.requests.size()
            << " inputs_hash=" << hex(p.set.hash) << " clients=" << kClients
            << " workers=" << wl->workers << " race_threads=" << race_threads << "\n";

  const bool service = wl->workers > 0;
  RunState st;
  st.per_request_s.resize(p.set.requests.size());
  const auto pass = [&](SpanRecorder* rec, LayerAcc* acc, bool decompose_now) {
    return service ? service_pass(p, st, rec, acc, decompose_now)
                   : suite_pass(p, st, rec, acc, decompose_now);
  };
  // Traced runs report no percentile.
  const std::size_t need = args.trace ? 0 : samples_needed(wl->tail_q);

  std::vector<double> pass_wall, pass_cpu, traced_wall;
  SpanRecorder rec;
  LayerAcc acc;
  const Clock::time_point start = Clock::now();
  double last_pass_s = 0.0;
  std::vector<double> pass_rss_mb;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    const bool enough =
        elapsed >= args.seconds && st.latency_ms.size() >= need &&
        (args.trace ? !traced_wall.empty()
                    : pass_wall.size() >= static_cast<std::size_t>(wl->min_passes));
    if (i > 0 && (enough || elapsed + last_pass_s > kHardCapSec)) break;
    const Clock::time_point t0 = Clock::now();
    if (args.trace && i % 2 == 1) {
      traced_wall.push_back(pass(&rec, &acc, traced_wall.empty()).wall_s);
    } else {
      reset_peak_rss();
      const PassOut out = pass(nullptr, nullptr, false);
      pass_rss_mb.push_back(peak_rss_mb());
      pass_wall.push_back(out.wall_s);
      pass_cpu.push_back(out.cpu_s);
    }
    last_pass_s = seconds_since(t0);
  }

  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  // End-to-end.  Suite wall: sum over requests of each one's median.
  double wall_s = 0.0;
  if (service) {
    wall_s = median(pass_wall);
  } else {
    for (const auto& lat : st.per_request_s) wall_s += median(lat);
  }
  // Process memory: VmHWM per untraced pass (each window opened by
  // reset_peak_rss), median over the first min_passes.  A per-layer
  // figure, not end-to-end: racing solvers make it swing by up to a
  // quarter between runs of the same code.
  pass_rss_mb.resize(std::min(pass_rss_mb.size(), static_cast<std::size_t>(wl->min_passes)));
  const double rss_mb = median(pass_rss_mb);
  std::vector<Metric> report_only;
  if (!args.trace) {
    report_only.push_back({"mem.peak_rss_mb", rss_mb, "MB"});
    add("wall_s", wall_s, "s");
    add("check_p50_ms", median(st.latency_ms), "ms");
    add("check_tail_ms", percentile_or_throw(st.latency_ms, wl->tail_q, "check_tail_ms"),
        "ms");
    add("decided_ratio", st.tally.decided_ratio(), "ratio");
    add("cpu_s", median(pass_cpu), "s");
    add("setup_s", median(setup_s), "s");
    for (const auto& [q, name] : {std::pair{0.9, "check_p90_ms"}, {0.99, "check_p99_ms"}})
      if (const std::optional<double> v = tail_percentile(st.latency_ms, q))
        report_only.push_back({name, *v, "ms"});
  } else {
    // The service probe: the suite workloads do not cross the service
    // layer, so a fixed seeded sample of the service catalogue measures
    // it for them.
    if (!service) {
      Prepared probe = set_up(workloads()[2], args.seed);
      for (std::size_t n = 0; n < kServiceProbeRequests; ++n) {
        const std::size_t key = probe.zipf->next();
        const RoundTrip rt =
            round_trip(*probe.server, probe.frames[key], probe.set.requests[key], &rec,
                       static_cast<std::int64_t>(key));
        st.tally.add(probe.set.requests[key].answer, rt.observed);
        record_round_trip(acc, rt);
      }
      p.server = std::move(probe.server);
    }
    const service::JobServer::Stats ss = p.server->stats();
    const Decomposed& d = acc.dec;
    const double solve_ms = rec.total_us("sat.solve") / 1e3;
    const double dec_span_us = rec.total_us("decomposed");

    add("bmc.preprocess_ms", rec.total_us("bmc.preprocess") / 1e3, "ms");
    add("bmc.preprocess_clause_cut",
        ratio(static_cast<double>(d.pre_clauses_in - d.pre_clauses_out),
              static_cast<double>(d.pre_clauses_in)),
        "ratio");
    add("bmc.preprocess_clauses_in", static_cast<double>(d.pre_clauses_in), "count");
    add("bmc.session_ms", rec.total_us("bmc.session") / 1e3, "ms");
    add("bmc.encode_ms", rec.total_us("bmc.encode") / 1e3, "ms");
    add("bmc.cnf_clauses", static_cast<double>(d.cnf_clauses), "count");
    add("sat.solve_ms", solve_ms, "ms");
    add("sat.props_per_s", ratio(static_cast<double>(d.propagations), solve_ms / 1e3), "1/s");
    add("sat.conflicts", static_cast<double>(d.conflicts), "count");
    add("sat.propagations", static_cast<double>(d.propagations), "count");
    add("sat.decisions", static_cast<double>(d.decisions), "count");
    add("portfolio.cancel_latency_us", median(acc.cancel_latency_us), "us");
    add("portfolio.lemmas_exported", static_cast<double>(acc.lemmas_exported), "count");
    add("portfolio.lemmas_imported", static_cast<double>(acc.lemmas_imported), "count");
    add("portfolio.rank_refreshes", static_cast<double>(acc.rank_refreshes), "count");
    add("portfolio.cpu_per_wall", ratio(acc.race_cpu_s, acc.race_wall_s), "ratio");
    add("api.check_ms", median(rec.durations_us("api.check")) / 1e3, "ms");
    add("api.resolve_us", median(rec.durations_us("api.resolve")), "us");
    add("api.fingerprint_us", median(rec.durations_us("api.fingerprint")), "us");
    add("api.race_over_decomposed", ratio(acc.decomposed_race_s, d.wall_s), "ratio");
    add("service.dispatch_us", median(acc.dispatch_us), "us");
    // A mean: one client's queue wait is a few clock ticks, so its
    // median would read the same tick count on every run.
    add("service.queue_ms", mean(acc.queue_ms), "ms");
    add("service.run_ms", median(acc.run_ms), "ms");
    add("service.cache_hit_ratio",
        ratio(static_cast<double>(acc.cache_hits), static_cast<double>(acc.round_trips)),
        "ratio");
    add("service.rejected", static_cast<double>(ss.rejected), "count");
    add("model.aiger_parse_us", median(rec.durations_us("model.aiger_parse")), "us");
    add("model.generate_ms", median(generate_ms), "ms");
    add("sim.cex_replay_us", median(rec.durations_us("sim.replay")), "us");
    add("mem.formula_peak_mb", static_cast<double>(acc.formula_peak_bytes) / (1024.0 * 1024.0),
        "MB");
    add("mem.peak_rss_mb", rss_mb, "MB");
    add("trace.overhead_ratio", ratio(median(traced_wall), median(pass_wall)), "ratio");
    add("trace.unattributed_ratio",
        ratio(rec.unattributed_us("decomposed"), dec_span_us), "ratio");

    if (!args.trace_file.empty() &&
        !rec.write_chrome(args.trace_file,
                          {{"workload", wl->name},
                           {"seed", std::to_string(args.seed)},
                           {"inputs_hash", hex(p.set.hash)},
                           {"nproc", std::to_string(nproc)},
                           {"compiler", E2E_COMPILER},
                           {"build_type", E2E_BUILD_TYPE}}))
      throw std::runtime_error("cannot write " + args.trace_file);
  }

  if (!service)
    for (std::size_t i = 0; i < p.set.requests.size(); ++i)
    {
      std::cout << "request " << p.set.requests[i].name
                << " median_ms=" << median(st.per_request_s[i]) * 1e3 << " samples_ms=";
      for (const double x : st.per_request_s[i]) std::cout << " " << x * 1e3;
      std::cout << "\n";
    }
  if (service) {
    const service::JobServer::Stats ss = p.server->stats();
    std::cout << "server: submitted=" << ss.submitted << " cache_hits=" << ss.cache_hits
              << " cache_misses=" << ss.cache_misses << " rejected=" << ss.rejected
              << " cache_evictions=" << p.server->cache().evictions() << "\n";
  }
  const Tally& t = st.tally;
  std::cout << "passes: untraced=" << pass_wall.size() << " traced=" << traced_wall.size()
            << " samples=" << st.latency_ms.size() << "\n";
  if (pass_wall.size() >= 2) {
    const Quartiles q = quartiles(pass_wall);
    std::cout << "noise band: untraced pass wall q1=" << q.q1 << " median=" << q.q2
              << " q3=" << q.q3 << " s (spread " << ratio(q.q3 - q.q1, q.q2) << ")\n";
  }

  std::cout << "verdicts: attempted=" << t.attempted << " correct=" << t.correct
            << " wrong=" << t.wrong << " limits=" << t.limits << " rejected=" << t.rejected
            << " errors=" << t.errors << "\n";
  for (const auto* list : {&metrics, &report_only})
    for (const Metric& m : *list) {
      std::cout << "metric " << m.name << " = ";
      print_json_number(std::cout, m.value);
      std::cout << " " << m.unit << "\n";
    }

  const bool correct = t.gate_ok() && inputs_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": ";
    print_json_number(std::cout, metrics[i].value);
    std::cout << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(e2ebench::parse_args(argc, argv));
  } catch (const e2ebench::UsageError& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
