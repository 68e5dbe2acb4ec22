// Incremental-session fast path (PR 8): activation-aware delta
// preprocessing, the assumption savepoint, and frame retirement.  The
// engine-level matrix pins verdict/depth equivalence with scratch mode
// across every knob combination; the bit-identity test pins the
// contract that both knobs off IS the PR 7 pipeline, counter for
// counter; the witness test drives the shared tape directly and proves
// a counter-example model of the delta-simplified formula, replayed by
// an incremental or a scratch consumer, recompletes over variables BVE
// eliminated at earlier depths.
#include <gtest/gtest.h>

#include <vector>

#include "bmc/encoder.hpp"
#include "bmc/engine.hpp"
#include "bmc/preprocess.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/benchgen.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {
namespace {

EngineConfig incremental_config(const model::Benchmark& bm, bool preprocess,
                                bool savepoint) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = bm.suggested_bound;
  cfg.incremental = true;
  cfg.preprocess.enabled = preprocess;
  cfg.solver.assumption_savepoint = savepoint;
  if (preprocess) cfg.solver.inprocess.vivify_interval = 4;
  return cfg;
}

TEST(IncrementalPreprocessTest, MatrixMatchesScratchOnQuickSuite) {
  // incremental × preprocess × savepoint, all four combinations per
  // model, against the scratch-mode reference: same verdict, same cex
  // depth, same last completed depth, and every trace replays on the
  // concrete simulator.
  for (const auto& bm : model::quick_suite()) {
    SCOPED_TRACE(bm.name);
    EngineConfig scratch;
    scratch.policy = OrderingPolicy::Dynamic;
    scratch.max_depth = bm.suggested_bound;
    const BmcResult a = BmcEngine(bm.net, scratch).run();
    for (const bool preprocess : {false, true}) {
      for (const bool savepoint : {false, true}) {
        SCOPED_TRACE(testing::Message() << "preprocess=" << preprocess
                                        << " savepoint=" << savepoint);
        const BmcResult b =
            BmcEngine(bm.net, incremental_config(bm, preprocess, savepoint))
                .run();
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.counterexample_depth, b.counterexample_depth);
        EXPECT_EQ(a.last_completed_depth, b.last_completed_depth);
        if (b.counterexample) {
          EXPECT_TRUE(validate_trace(bm.net, *b.counterexample));
        }
      }
    }
  }
}

TEST(IncrementalPreprocessTest, KnobsOffIsBitIdenticalToLegacyIncremental) {
  // `--preprocess off` + `--assumption-savepoint off` must reproduce the
  // PR 7 incremental pipeline counter for counter.  Both knobs default
  // off at the EngineConfig level, so the default-config run IS the
  // legacy path; the explicit-off run must match it per depth.
  for (const auto& bm :
       {model::fifo_safe(3), model::counter_reach(3, 2, false)}) {
    SCOPED_TRACE(bm.name);
    EngineConfig legacy;
    legacy.policy = OrderingPolicy::Dynamic;
    legacy.max_depth = bm.suggested_bound;
    legacy.incremental = true;
    EngineConfig off = incremental_config(bm, false, false);
    off.solver.inprocess.vivify_interval =
        legacy.solver.inprocess.vivify_interval;

    const BmcResult a = BmcEngine(bm.net, legacy).run();
    const BmcResult b = BmcEngine(bm.net, off).run();
    ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
    for (std::size_t i = 0; i < a.per_depth.size(); ++i) {
      EXPECT_EQ(a.per_depth[i].decisions, b.per_depth[i].decisions) << i;
      EXPECT_EQ(a.per_depth[i].propagations, b.per_depth[i].propagations)
          << i;
      EXPECT_EQ(a.per_depth[i].conflicts, b.per_depth[i].conflicts) << i;
      // The fast-path counters must read zero with the knobs off.
      EXPECT_EQ(b.per_depth[i].savepoint_hits, 0u) << i;
      EXPECT_EQ(b.per_depth[i].savepoint_misses, 0u) << i;
      EXPECT_EQ(b.per_depth[i].retired_frame_clauses, 0u) << i;
    }
  }
}

TEST(IncrementalPreprocessTest, SavepointAndRetirementStatsFlow) {
  // On a passing property the session's assumption lists share all but
  // the newest guard level, so deep enough runs must record prefix
  // resumes — and the batched retirement flush must free the dead
  // guards' clauses out of the arena.
  const auto bm = model::fifo_safe(3);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::BoundReached);
  std::uint64_t hits = 0, misses = 0, reused = 0, retired = 0;
  for (const auto& d : r.per_depth) {
    hits += d.savepoint_hits;
    misses += d.savepoint_misses;
    reused += d.savepoint_levels_reused;
    retired += d.retired_frame_clauses;
  }
  EXPECT_EQ(hits + misses, r.per_depth.size());  // one solve per depth
  EXPECT_GT(hits, 0u);
  EXPECT_GE(reused, hits);  // every hit reuses at least one level
  EXPECT_GT(retired, 0u);   // at least one batch flushed
}

TEST(IncrementalPreprocessTest, DeltaPreprocessStatsReported) {
  // With preprocessing on, incremental runs report the per-depth DELTA
  // pass counters (PR 7 zeroed these in incremental mode).
  const auto bm = model::counter_reach(4, 6, true);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  std::uint64_t eliminated = 0;
  for (const auto& d : r.per_depth) eliminated += d.vars_eliminated;
  EXPECT_GT(eliminated, 0u);
}

TEST(IncrementalPreprocessTest, WitnessRecompletesAcrossDepthDeltas) {
  // A counter-example found at depth k on the delta-simplified formula
  // must extend — through the cumulative witness stack — to a model of
  // the ORIGINAL tape formula, including variables BVE eliminated at
  // depths < k.  Drives SharedTape directly: one identity consumer
  // collects the unsimplified clauses; solver consumers replay the
  // simplified deltas one depth at a time (incremental) or 0..k at once
  // into a fresh solver (scratch).
  struct CollectSink final : public ClauseSink {
    std::vector<std::vector<sat::Lit>> clauses;
    sat::Var next = 0;
    sat::Var add_var(const VarOrigin&) override { return next++; }
    void add_clause(std::span<const sat::Lit> lits) override {
      clauses.emplace_back(lits.begin(), lits.end());
    }
  };

  const auto bm = model::counter_reach(4, 6, true);
  ASSERT_TRUE(bm.expect_fail);
  const int k = bm.expect_depth;
  ASSERT_GE(k, 2);  // need eliminations at depths strictly below k

  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);

  // Identity consumer: tape variables are created densely from 0, so the
  // collected clauses are in tape variable space verbatim.
  ClauseTape::Cursor id_cursor;
  CollectSink original;
  tape.replay_to(k, id_cursor, original);

  const VarRemapper remap = tape.remapper_at(k);
  ASSERT_GT(remap.num_eliminated(), 0u);  // the test must not be vacuous

  for (const bool scratch : {false, true}) {
    SCOPED_TRACE(scratch ? "scratch" : "incremental");
    sat::Solver solver;
    std::vector<VarOrigin> origin;
    SolverSink sink(solver, origin);
    ClauseTape::Cursor cursor;
    if (scratch) {
      tape.replay_simplified_to(k, cursor, sink);
    } else {
      for (int f = 0; f <= k; ++f)
        tape.replay_simplified_delta(f, cursor, sink);
    }
    ASSERT_EQ(solver.solve({cursor.translate(tape.property(k))}),
              sat::Result::Sat);

    // Lift the solver model back to tape space (eliminated slots undef),
    // then let the witness stack fill in the eliminated variables.
    std::vector<sat::lbool> values(
        static_cast<std::size_t>(remap.num_vars()), sat::l_Undef);
    for (std::size_t t = 0; t < cursor.var_map.size(); ++t) {
      if (cursor.var_map[t] == sat::kVarUndef) continue;
      values[t] = solver.model_value(cursor.var_map[t]);
    }
    remap.complete_model(values);

    for (const auto& clause : original.clauses) {
      bool satisfied = false;
      for (const sat::Lit l : clause) {
        const sat::lbool v = values[static_cast<std::size_t>(l.var())];
        if ((v ^ l.negated()) == sat::l_True) {
          satisfied = true;
          break;
        }
      }
      EXPECT_TRUE(satisfied);
      if (!satisfied) break;  // one counter-example clause is enough
    }
  }
}

}  // namespace
}  // namespace refbmc::bmc
