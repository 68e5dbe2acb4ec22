// The benchmark's three request sets, generated from --seed.  The
// program under test only ever sees the generated netlists (as objects
// for api::check, as AIGER text on the service wire); the answer key
// stays on the benchmark's side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/benchgen.hpp"
#include "model/netlist.hpp"
#include "stats.hpp"

namespace e2ebench {

struct Request {
  std::string name;
  refbmc::model::Netlist net;
  int bound = 0;
  std::string aiger;  // ASCII AIGER text of `net`
  Answer answer;
};

struct RequestSet {
  std::vector<Request> requests;
  /// FNV-1a over every request's AIGER text and bound, in order: the
  /// identity of the generated inputs, printed with every result.
  std::uint64_t hash = 0;
};

/// The 37 standard-suite rows at their suggested bounds.  Seed 1 is
/// model::standard_suite() exactly; other seeds redraw the distractor
/// seeds of the distractor-wrapped rows.
RequestSet std_suite(std::uint64_t seed);

/// The hash std_suite(1) must reproduce: computed from
/// model::standard_suite() itself.
std::uint64_t standard_suite_hash();

/// Eighteen solve-dominated rows: arbiter_safe n in {12,13,14} plain and
/// n in {10,11,12} wrapped in distractors, plus peterson_buggy, needle,
/// accumulator_reach and counter_reach each wrapped three times (the
/// counterexample verdicts).  Distractor sizes and seeds come from the
/// seed.
RequestSet search_heavy(std::uint64_t seed);

/// The service workload's key space: 120 small family instances (15
/// families x 8), each at 8 bounds.  Every instance is small enough for
/// mc::explicit_reach, which supplies the answer at every bound.
RequestSet service_catalogue(std::uint64_t seed);

/// The answer for `b` at `bound`: expect_fail with expect_depth <= bound
/// when the depth is known; mc::explicit_reach when it is not and the
/// model is small enough; otherwise expect_fail (only valid at the
/// suggested bound, which is where the suites check it).
Answer answer_for(const refbmc::model::Benchmark& b, int bound);

}  // namespace e2ebench
