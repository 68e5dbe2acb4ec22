// Tape-level CNF preprocessing (paper-adjacent perf layer; ROADMAP
// "Inprocessing + formula preprocessing layer").
//
// The tape pipeline simplifies at the AIG level (constprop, strashing,
// latch aliasing), but the CNF that reaches the racing solvers is the
// raw Tseitin encoding.  This pass simplifies the *clause* level once
// per encoded frame (SharedTape's per-depth deltas), before replay into
// a scratch or incremental solver:
//
//   * unit propagation to fixpoint (root units stay in the output, so
//     the solver sees the same level-0 facts it would have derived);
//   * subsumption and self-subsuming resolution, occurrence lists +
//     64-bit signature filtering (SatELite's backward-subsumption idiom);
//   * pure-literal elimination;
//   * bounded variable elimination (NiVER: eliminate v only when the
//     non-tautological resolvents do not outnumber the clauses they
//     replace, under an occurrence budget and a resolvent-size cap).
//
// Soundness contract with the rest of the race:
//
//   * Variable numbering is PRESERVED.  Eliminated tape variables simply
//     never reach the solver (their var_map slot is sat::kVarUndef), so
//     VarOrigin projection — extract_trace, CDG core vars, RankProjector,
//     PoolEndpoint — keeps working unchanged on the kept variables.
//   * Every simplified clause is implied by the original tape range, so
//     lemmas derived from the simplified formula are tape-implied and
//     safe to export to the shared pool; imported lemmas over eliminated
//     variables are dropped at the endpoint (they can never bind here).
//   * FROZEN variables are never eliminated: inputs and latches (trace
//     extraction and cross-depth identity), per-frame property/bad
//     literals (assumption guards), and the encoder's auxiliary
//     constant variables.  Frozen variables may still be *assigned* by
//     unit propagation — the unit stays in the output, so the solver
//     derives the same root fact.
//   * Eliminated variables carry a witness (the clauses removed with
//     them): VarRemapper::complete_model extends any model of the
//     simplified formula to a model of the original, which is what makes
//     the elimination sound and lets tests check full-model round trips.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace refbmc::bmc {

/// Knobs for the tape pass.  Equality-comparable: shard groups and
/// shared tapes must agree on the exact configuration or their solvers
/// would race on different formulas (scheduler group key / engine
/// shared-tape assert).
struct PreprocessOptions {
  bool enabled = false;
  /// NiVER occurrence budget: variable v is a candidate only while
  /// occ(v) + occ(~v) <= bve_budget.
  int bve_budget = 16;
  /// Resolvent-size cap: an elimination producing any resolvent longer
  /// than this is rejected (keeps clauses short even when counts allow).
  int bve_max_resolvent = 24;
  /// Maximum simplification rounds (each = subsume/SSR + pure + BVE +
  /// unit propagation); stops early at fixpoint.
  int rounds = 3;

  friend bool operator==(const PreprocessOptions&,
                         const PreprocessOptions&) = default;
};

struct PreprocessStats {
  std::uint64_t vars_eliminated = 0;  // BVE + pure + zero-occurrence
  std::uint64_t pure_literals = 0;    // subset of vars_eliminated
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t lits_strengthened = 0;  // self-subsumption + UP strips
  std::uint64_t units_propagated = 0;
  std::uint64_t clauses_in = 0;
  std::uint64_t clauses_out = 0;
  std::uint64_t lits_in = 0;
  std::uint64_t lits_out = 0;
  std::uint64_t preprocess_us = 0;
};

/// Tape-var → solver-space bookkeeping for eliminated variables.
///
/// Kept variables keep their tape numbering (the session's var_map does
/// the tape→solver translation as before); eliminated variables carry a
/// witness stack entry so models extend back.  Witnesses are completed
/// in REVERSE elimination order: each entry's clauses may mention
/// variables eliminated later (already completed) or kept variables,
/// never variables eliminated earlier (their clauses were gone by then).
class VarRemapper {
 public:
  struct Witness {
    /// The eliminated literal; every stored clause contains it.
    sat::Lit lit;
    /// The clauses removed with the variable (BVE: the positive
    /// occurrence list; pure: all occurrences; zero-occ: empty).
    std::vector<std::vector<sat::Lit>> clauses;
    /// The remaining clauses removed with the variable (BVE: the
    /// negative occurrence list; empty otherwise).  `clauses` +
    /// `removed` together are the variable's full resurrection kit:
    /// re-adding both restores every constraint the elimination
    /// deleted, which is what lets an *incremental* delta reference a
    /// variable eliminated at an earlier depth (global strashing makes
    /// later frames point at earlier gate variables).
    std::vector<std::vector<sat::Lit>> removed;
  };

  VarRemapper() = default;
  explicit VarRemapper(int num_vars)
      : kept_(static_cast<std::size_t>(num_vars), 1) {}

  int num_vars() const { return static_cast<int>(kept_.size()); }
  bool is_kept(sat::Var v) const {
    return kept_[static_cast<std::size_t>(v)] != 0;
  }
  std::size_t num_eliminated() const { return witnesses_.size(); }
  const std::vector<Witness>& witnesses() const { return witnesses_; }

  /// Appends newly encoded tape variables (kept by default).  Used by
  /// the incremental delta pass, whose variable universe grows with
  /// each depth while the witness stack persists.
  void grow(int num_vars);

  /// Re-admits an eliminated variable: marks it kept again and returns
  /// (removes) its witness entry.  The caller must re-add the entry's
  /// `clauses` + `removed` kit to the formula — afterwards the variable
  /// behaves as if it had never been eliminated, and `complete_model`
  /// reads its value from the solver model like any kept variable.
  Witness resurrect(sat::Var v);

  /// Marks lit.var() eliminated, recording its witness clauses (each
  /// must contain `lit`) plus the opposite-polarity clauses removed
  /// with it (resurrection kit; not consulted by complete_model).
  void eliminate(sat::Lit lit, std::vector<std::vector<sat::Lit>> clauses,
                 std::vector<std::vector<sat::Lit>> removed = {});

  /// Extends a model of the simplified formula (tape-var indexed; kept
  /// variables assigned, eliminated ones l_Undef) to a model of the
  /// original formula.  Default: falsify the witness literal (which
  /// satisfies the removed opposite-polarity clauses); flip only when
  /// some witness clause is otherwise unsatisfied (the flip satisfies
  /// all of them — they all contain the literal).
  void complete_model(std::vector<sat::lbool>& values) const;

 private:
  std::vector<char> kept_;  // per tape var: 1 = survives to the solver
  std::vector<Witness> witnesses_;  // elimination order
};

struct SimplifyResult {
  /// Simplified clauses in tape variable space: unit clauses for every
  /// root-level fact first, then the surviving clauses in tape order.
  /// Deterministic for a given (clauses, frozen, options) input.
  std::vector<std::vector<sat::Lit>> clauses;
  VarRemapper remap;
  PreprocessStats stats;
  /// Post-run root assignment per tape variable (includes any seeded
  /// facts).  The incremental pass carries this across depths so later
  /// deltas are simplified against everything already known.
  std::vector<sat::lbool> assigned;
  /// True when the pass derived the empty clause (should not happen on
  /// a definitional tape) and returned the input unsimplified.
  bool fell_back = false;
};

class TapePreprocessor {
 public:
  explicit TapePreprocessor(PreprocessOptions opts) : opts_(opts) {}

  /// Simplifies `clauses` (over variables 0..num_vars-1) with the
  /// variables marked in `frozen` (size num_vars) protected from
  /// elimination.  Pure function of its inputs; thread-safe.
  ///
  /// `seed` (optional, size num_vars) pre-assigns root facts from
  /// earlier incremental deltas: seeded literals simplify the input
  /// (satisfied clauses die, false literals strip) but are neither
  /// counted as new units nor re-emitted in the output — the consuming
  /// solver already owns them.
  SimplifyResult run(int num_vars,
                     const std::vector<std::vector<sat::Lit>>& clauses,
                     const std::vector<char>& frozen,
                     const std::vector<sat::lbool>* seed = nullptr) const;

 private:
  PreprocessOptions opts_;
};

}  // namespace refbmc::bmc
