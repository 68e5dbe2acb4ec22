#include "workloads.hpp"

#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "mc/reach.hpp"
#include "model/aiger.hpp"

namespace e2ebench {

using refbmc::model::Benchmark;
namespace gen = refbmc::model;

namespace {

// explicit_reach enumerates states x input valuations; keep both small
// so the answer key costs milliseconds.
bool small_enough(const refbmc::model::Netlist& net) {
  return net.num_latches() <= 20 && net.num_inputs() <= 10 &&
         net.num_latches() + net.num_inputs() <= 24;
}

Request make_request(Benchmark b, int bound, Answer answer) {
  Request r;
  r.name = b.name + "@" + std::to_string(bound);
  r.answer = answer;
  r.bound = bound;
  r.aiger = refbmc::model::to_aiger_string(b.net);
  r.net = std::move(b.net);
  return r;
}

void add_hash(RequestSet& set) {
  std::uint64_t h = fnv1a("");
  for (const Request& r : set.requests)
    h = fnv1a(r.aiger + "#" + std::to_string(r.bound) + "\n", h);
  set.hash = h;
}

// One standard-suite row: its base circuit and, for wrapped rows, the
// distractor size and the seed model::standard_suite() uses.
struct SuiteRow {
  Benchmark (*base)();
  int regs;  // 0: not wrapped
  std::uint64_t dseed;
};

// The rows of model::standard_suite(), in its order.
const std::vector<SuiteRow>& suite_rows() {
  static const std::vector<SuiteRow> rows = {
      {[] { return gen::counter_reach(8, 24, true); }, 0, 0},
      {[] { return gen::counter_reach(10, 18, true); }, 0, 0},
      {[] { return gen::counter_reach(8, 24, true); }, 24, 101},
      {[] { return gen::counter_reach(10, 18, true); }, 40, 110},
      {[] { return gen::counter_safe(8, 200, 250); }, 0, 0},
      {[] { return gen::counter_safe(8, 200, 250); }, 32, 102},
      {[] { return gen::counter_safe(12, 3000, 4000); }, 48, 111},
      {[] { return gen::shift_all_ones(12); }, 0, 0},
      {[] { return gen::lfsr_hit(16, 22); }, 0, 0},
      {[] { return gen::lfsr_safe(10); }, 0, 0},
      {[] { return gen::gray_safe(8); }, 0, 0},
      {[] { return gen::gray_safe(8); }, 24, 112},
      {[] { return gen::johnson_safe(12); }, 0, 0},
      {[] { return gen::arbiter_safe(8); }, 0, 0},
      {[] { return gen::arbiter_safe(16); }, 0, 0},
      {[] { return gen::arbiter_safe(8); }, 24, 103},
      {[] { return gen::arbiter_safe(12); }, 32, 113},
      {[] { return gen::arbiter_buggy(8); }, 0, 0},
      {[] { return gen::fifo_safe(4); }, 0, 0},
      {[] { return gen::fifo_safe(5); }, 0, 0},
      {[] { return gen::fifo_safe(4); }, 32, 104},
      {[] { return gen::fifo_safe(5); }, 24, 114},
      {[] { return gen::fifo_buggy(4); }, 0, 0},
      {[] { return gen::fifo_buggy(4); }, 24, 105},
      {[] { return gen::peterson_safe(); }, 0, 0},
      {[] { return gen::peterson_safe(); }, 32, 106},
      {[] { return gen::peterson_buggy(); }, 24, 115},
      {[] { return gen::traffic_safe(4); }, 0, 0},
      {[] { return gen::traffic_buggy(4); }, 0, 0},
      {[] { return gen::accumulator_reach(12, 3, 70); }, 0, 0},
      {[] { return gen::accumulator_reach(16, 4, 255); }, 0, 0},
      {[] { return gen::accumulator_reach(12, 3, 70); }, 24, 108},
      {[] { return gen::accumulator_reach(16, 4, 255); }, 24, 116},
      {[] { return gen::accumulator_safe(12, 3, 63); }, 0, 0},
      {[] { return gen::needle(8, 8, 20, 10); }, 0, 0},
      {[] { return gen::needle(10, 8, 24, 30); }, 0, 0},
      {[] { return gen::needle(10, 8, 24, 30); }, 32, 109},
  };
  return rows;
}

}  // namespace

Answer answer_for(const Benchmark& b, int bound) {
  if (b.expect_depth >= 0)
    return {b.expect_depth <= bound, b.expect_depth};
  if (small_enough(b.net)) {
    const refbmc::mc::ReachResult reach = refbmc::mc::explicit_reach(b.net);
    const bool fail = reach.shortest_counterexample.has_value() &&
                      *reach.shortest_counterexample <= bound;
    return {fail, fail ? *reach.shortest_counterexample : -1};
  }
  if (bound != b.suggested_bound)
    throw std::logic_error("no answer for " + b.name + " at bound " +
                           std::to_string(bound));
  return {b.expect_fail, -1};
}

RequestSet std_suite(std::uint64_t seed) {
  SplitMix rng(seed);
  RequestSet set;
  for (const SuiteRow& row : suite_rows()) {
    Benchmark b = row.base();
    if (row.regs > 0) {
      const std::uint64_t dseed = seed == 1 ? row.dseed : 1 + rng.below(1000000);
      b = gen::with_distractor(std::move(b), row.regs, dseed);
    }
    const int bound = b.suggested_bound;
    const Answer answer = answer_for(b, bound);
    set.requests.push_back(make_request(std::move(b), bound, answer));
  }
  add_hash(set);
  return set;
}

std::uint64_t standard_suite_hash() {
  std::uint64_t h = fnv1a("");
  for (const Benchmark& b : gen::standard_suite())
    h = fnv1a(refbmc::model::to_aiger_string(b.net) + "#" +
                  std::to_string(b.suggested_bound) + "\n",
              h);
  return h;
}

RequestSet search_heavy(std::uint64_t seed) {
  SplitMix rng(seed ^ 0x5ea7c4ull);
  const auto wrap = [&rng](Benchmark b) {
    const int regs = rng.between(20, 32);
    return gen::with_distractor(std::move(b), regs, 1 + rng.below(1000000));
  };
  // The heavy rows are the plain arbiters, which the seed does not
  // touch; wrapped arbiters stay smaller, and each counterexample family
  // appears three times, so no single seed-drawn row carries enough of
  // the pass (or of the latency median) to swing it.
  std::vector<Benchmark> rows;
  for (const int n : {12, 13, 14}) rows.push_back(gen::arbiter_safe(n));
  for (const int n : {10, 11, 12}) rows.push_back(wrap(gen::arbiter_safe(n)));
  for (int copy = 0; copy < 3; ++copy) {
    rows.push_back(wrap(gen::peterson_buggy()));
    rows.push_back(wrap(gen::needle(8, 8, 20, 10)));
    rows.push_back(wrap(gen::accumulator_reach(16, 4, 255)));
    rows.push_back(wrap(gen::counter_reach(8, 24, true)));
  }
  RequestSet set;
  for (Benchmark& b : rows) {
    const int bound = b.suggested_bound;
    const Answer answer = answer_for(b, bound);
    set.requests.push_back(make_request(std::move(b), bound, answer));
  }
  add_hash(set);
  return set;
}

RequestSet service_catalogue(std::uint64_t seed) {
  // 15 families x 8 instances x 8 bounds = 960 keys.  The family mix and
  // the size parameters cycle with the instance index, and the bounds
  // stop at 8 (safe arbiters and peterson at bound 12 cost 50x a typical
  // miss), so the cost of a miss does not swing with which keys the
  // seed makes hot; the seed draws targets, moduli and the distractors.
  constexpr int kFamilies = 15;
  constexpr int kPerFamily = 8;
  constexpr int kBounds[] = {1, 2, 3, 4, 5, 6, 7, 8};
  SplitMix rng(seed ^ 0x5e41ceull);
  const auto draw = [&rng](int family, int j) -> Benchmark {
    switch (family) {
      case 0:
        return gen::counter_reach(4 + j % 3, static_cast<std::uint64_t>(rng.between(3, 15)),
                                  j % 2 == 1);
      case 1: {
        const int bits = 4 + j % 3;
        const auto top = std::uint64_t{1} << bits;
        const std::uint64_t modulus = 2 + rng.below(top - 3);
        return gen::counter_safe(bits, modulus, modulus + rng.below(top - modulus));
      }
      case 2: return gen::shift_all_ones(3 + j);
      case 3: return gen::lfsr_safe(4 + j % 5);
      case 4: return gen::gray_safe(3 + j % 4);
      case 5: return gen::johnson_safe(3 + j % 6);
      case 6: return gen::arbiter_safe(3 + j % 2);
      case 7: return gen::arbiter_buggy(3 + j % 4);
      case 8: return gen::fifo_safe(2 + j % 2);
      case 9: return gen::fifo_buggy(2 + j % 2);
      case 10: return j % 2 == 1 ? gen::peterson_safe() : gen::peterson_buggy();
      case 11: return j % 2 == 1 ? gen::traffic_safe(3) : gen::traffic_buggy(3);
      case 12:
        return gen::accumulator_reach(6 + j % 3, 2,
                                      static_cast<std::uint64_t>(rng.between(5, 40)));
      case 13:
        return gen::accumulator_safe(6 + j % 3, 2,
                                     2 * static_cast<std::uint64_t>(rng.between(2, 20)) + 1);
      default:
        return gen::needle(4, 4, static_cast<std::uint64_t>(rng.between(2, 15)),
                           static_cast<std::uint64_t>(rng.between(2, 15)));
    }
  };

  RequestSet set;
  std::unordered_set<std::string> seen;
  for (int f = 0; f < kFamilies; ++f) {
    for (int j = 0; j < kPerFamily; ++j) {
      // A repeat of an earlier instance gets a small distractor, which
      // makes it new (parameterless families need this most).
      for (int attempt = 0;; ++attempt) {
        Benchmark b = draw(f, j);
        if (attempt > 0)
          b = gen::with_distractor(std::move(b), rng.between(2, 3), 1 + rng.below(1000000));
        if (!small_enough(b.net)) continue;
        std::string aiger = refbmc::model::to_aiger_string(b.net);
        if (!seen.insert(std::move(aiger)).second) continue;
        const std::optional<int> shortest =
            refbmc::mc::explicit_reach(b.net).shortest_counterexample;
        for (const int bound : kBounds) {
          const bool fail = shortest.has_value() && *shortest <= bound;
          set.requests.push_back(make_request(b, bound, {fail, fail ? *shortest : -1}));
        }
        break;
      }
    }
  }
  add_hash(set);
  return set;
}

}  // namespace e2ebench
