// Tests of the benchmark's own arithmetic and input generation: order
// statistics, the ten-samples-beyond percentile rule, verdict grading
// and decided_ratio accounting (a wrong answer key must fail the gate),
// and seeded reproducibility of the request streams.
#include <gtest/gtest.h>

#include <map>

#include "api/refbmc.hpp"
#include "bmc/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

namespace api = refbmc::api;
namespace bmc = refbmc::bmc;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(a.q1, 1.25);
  EXPECT_DOUBLE_EQ(a.q2, 2.5);
  EXPECT_DOUBLE_EQ(a.q3, 3.75);
  const Quartiles b = quartiles(iota(10));
  EXPECT_DOUBLE_EQ(b.q1, 2.75);
  EXPECT_DOUBLE_EQ(b.q2, 5.5);
  EXPECT_DOUBLE_EQ(b.q3, 8.25);
  const Quartiles c = quartiles({0.5, 9.0, 1.5});  // [0.5, 1.5, 9.0]
  EXPECT_DOUBLE_EQ(c.q1, 0.5);
  EXPECT_DOUBLE_EQ(c.q2, 1.5);
  EXPECT_DOUBLE_EQ(c.q3, 9.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_needed(0.9), 100u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
  EXPECT_FALSE(tail_percentile(iota(99), 0.9).has_value());
  ASSERT_TRUE(tail_percentile(iota(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(iota(100), 0.9), 90.0);
  EXPECT_FALSE(tail_percentile(iota(999), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(iota(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(iota(20), 0.5), 10.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

Observed cex(int depth, bool replay_ok = true) {
  return {Verdict::Cex, depth, replay_ok};
}
Observed plain(Verdict v) { return {v, -1, false}; }

TEST(Grade, DefinitiveVerdictsAgainstTheKey) {
  EXPECT_EQ(grade({true, 5}, cex(5)), Grade::Correct);
  EXPECT_EQ(grade({true, -1}, cex(7)), Grade::Correct);  // depth unknown
  EXPECT_EQ(grade({false, -1}, plain(Verdict::Bound)), Grade::Correct);
  EXPECT_EQ(grade({true, 5}, cex(4)), Grade::Wrong);  // wrong depth
  EXPECT_EQ(grade({true, 5}, cex(5, false)), Grade::Wrong);  // no replay
  EXPECT_EQ(grade({false, -1}, cex(3)), Grade::Wrong);
  EXPECT_EQ(grade({true, 5}, plain(Verdict::Bound)), Grade::Wrong);
  EXPECT_EQ(grade({true, 5}, plain(Verdict::Limit)), Grade::Undecided);
  EXPECT_EQ(grade({false, -1}, plain(Verdict::Rejected)), Grade::Undecided);
  EXPECT_EQ(grade({false, -1}, plain(Verdict::Error)), Grade::Undecided);
}

TEST(Tally, DecidedRatioCountsEveryUndecidedAndWrongAnswer) {
  Tally t;
  EXPECT_FALSE(t.gate_ok());  // nothing attempted
  EXPECT_DOUBLE_EQ(t.decided_ratio(), 0.0);
  for (int i = 0; i < 6; ++i) t.add({true, 2}, cex(2));
  t.add({true, 2}, plain(Verdict::Limit));
  t.add({true, 2}, plain(Verdict::Rejected));
  t.add({true, 2}, plain(Verdict::Error));
  t.add({false, -1}, plain(Verdict::Bound));
  EXPECT_EQ(t.attempted, 10u);
  EXPECT_EQ(t.correct, 7u);
  EXPECT_EQ(t.limits, 1u);
  EXPECT_EQ(t.rejected, 1u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.decided_ratio(), 0.7);
  EXPECT_TRUE(t.gate_ok());  // undecided lowers the ratio, not the gate
  t.add({false, -1}, cex(1));
  EXPECT_EQ(t.wrong, 1u);
  EXPECT_NEAR(t.decided_ratio(), 7.0 / 11.0, 1e-12);
  EXPECT_FALSE(t.gate_ok());
}

// A real check graded once against the true key and once against a
// falsified one: the falsified key must fail the gate.
TEST(Tally, FakeAnswerKeyFailsTheGate) {
  const RequestSet set = service_catalogue(7);
  int checked = 0;
  for (const Request& r : set.requests) {
    api::CheckRequest c;
    c.net = r.net;
    c.options.policy("dynamic").max_depth(r.bound);
    const api::CheckResult res = api::check(c);
    Observed o;
    if (res.found_counterexample()) {
      o = cex(res.counterexample_depth,
              res.counterexample && bmc::validate_trace(r.net, *res.counterexample));
    } else {
      o = plain(res.status == api::CheckResult::Status::BoundReached ? Verdict::Bound
                                                                    : Verdict::Limit);
    }
    Tally truth, fake;
    truth.add(r.answer, o);
    const Answer flipped = r.answer.fail ? Answer{false, -1} : Answer{true, r.bound};
    fake.add(flipped, o);
    EXPECT_TRUE(truth.gate_ok()) << r.name;
    EXPECT_FALSE(fake.gate_ok()) << r.name;
    if (++checked == 24) break;
  }
}

TEST(Zipf, SameSeedSameStreamOtherSeedOtherStream) {
  ZipfStream a(960, 0.8, 42), b(960, 0.8, 42), c(960, 0.8, 43);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 2000; ++i) {
    sa.push_back(a.next());
    sb.push_back(b.next());
    sc.push_back(c.next());
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  std::map<std::size_t, int> freq;
  for (const std::size_t k : sa) {
    ASSERT_LT(k, 960u);
    ++freq[k];
  }
  // Skewed: the hottest key is drawn far more often than uniform (~2).
  int hottest = 0;
  for (const auto& [k, n] : freq) hottest = std::max(hottest, n);
  EXPECT_GT(hottest, 40);
  EXPECT_GT(freq.size(), 300u);  // but the tail is wide
}

TEST(Workloads, SeedOneIsTheStandardSuite) {
  const RequestSet one = std_suite(1);
  ASSERT_EQ(one.requests.size(), 37u);
  EXPECT_EQ(one.hash, standard_suite_hash());
  EXPECT_NE(std_suite(2).hash, one.hash);
  EXPECT_EQ(std_suite(2).hash, std_suite(2).hash);
}

TEST(Workloads, GeneratorsAreReproducibleBySeed) {
  EXPECT_EQ(search_heavy(5).hash, search_heavy(5).hash);
  EXPECT_NE(search_heavy(5).hash, search_heavy(6).hash);
  const RequestSet cat = service_catalogue(5);
  EXPECT_EQ(cat.requests.size(), 960u);
  EXPECT_EQ(cat.hash, service_catalogue(5).hash);
  EXPECT_NE(cat.hash, service_catalogue(6).hash);
}

}  // namespace
}  // namespace e2ebench
