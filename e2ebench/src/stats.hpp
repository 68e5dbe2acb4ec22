// The end-to-end benchmark's own arithmetic: order statistics, the
// "at least ten samples beyond" percentile rule, verdict grading against
// an answer key, and the seeded input streams (splitmix64, Zipf).
//
// Everything here is independent of refbmc's own code on purpose: the
// benchmark's inputs and its pass/fail rule must not move when the
// program under test changes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2ebench {

// ---- order statistics --------------------------------------------------------

/// Median (mean of the two middle values for an even count).  Empty
/// input gives 0.
double median(std::vector<double> v);

/// First and third quartile by the same rule as Python's
/// statistics.quantiles(v, n=4) (its default "exclusive" method), so the
/// benchmark's spreads read exactly like a recomputation in Python.
/// Fewer than two values give that value (0 when empty).
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// Nearest-rank percentile (q in (0, 1)), reported only when at least
/// `min_beyond` samples lie strictly past its rank — a p90 needs 100
/// samples, a p99 needs 1000.  nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond = 10);

/// Smallest sample count for which tail_percentile(q, min_beyond) is
/// defined.
std::size_t samples_needed(double q, std::size_t min_beyond = 10);

// ---- verdict grading ---------------------------------------------------------

/// The known answer for one request at its bound: does a counterexample
/// exist within the bound, and at which depth (-1: exists, depth
/// unknown).
struct Answer {
  bool fail = false;
  int depth = -1;
};

/// What a check returned, flattened to what the grade needs.
enum class Verdict { Cex, Bound, Limit, Rejected, Error };

struct Observed {
  Verdict verdict = Verdict::Error;
  int cex_depth = -1;
  /// The counterexample replayed on the simulator with the bad signal
  /// first firing at exactly cex_depth.
  bool replay_ok = false;
};

enum class Grade { Correct, Wrong, Undecided };

/// Correct: the verdict matches the answer (a counterexample at the
/// answer's depth when known, replaying on the simulator).  Wrong: a
/// definitive verdict that contradicts the answer, or a counterexample
/// that does not replay.  Undecided: limit, rejection or error.
Grade grade(const Answer& answer, const Observed& observed);

/// Per-run accounting behind decided_ratio and the correctness gate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;
  std::uint64_t limits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;

  void add(const Answer& answer, const Observed& observed);
  /// Correct definitive verdicts over requests attempted (0 when none).
  double decided_ratio() const;
  std::uint64_t failed() const { return attempted - correct; }
  /// The run's correctness gate: something was attempted and no verdict
  /// contradicted the answer key.
  bool gate_ok() const { return attempted > 0 && wrong == 0; }
};

// ---- seeded streams ----------------------------------------------------------

/// splitmix64: the benchmark's only random source.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform integer in [lo, hi].
  int between(int lo, int hi);
  /// Uniform in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// Zipf(s) over `keys` keys: rank r (1-based) has weight r^-s, and ranks
/// map to keys through a seeded permutation, so the hot keys differ by
/// seed.  The same (keys, s, seed) always yields the same stream.
class ZipfStream {
 public:
  ZipfStream(std::size_t keys, double s, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> key_of_rank_;
  SplitMix rng_;
};

/// FNV-1a 64 over `text`, continuing from `h`.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 1469598103934665603ull);

}  // namespace e2ebench
