#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld < 2) {
    const double x = ld == 1 ? v[0] : 0.0;
    return {x, x, x};
  }
  // statistics.quantiles, method="exclusive", n=4, in its exact integer
  // form: j = i*(ld+1)//4 clamped to [1, ld-1], delta = i*(ld+1) - 4j.
  double q[3];
  const std::size_t m = ld + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

namespace {

// Nearest rank of quantile q over n samples (1-based).
std::size_t nearest_rank(double q, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond) {
  if (v.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(q, v.size());
  if (v.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::size_t samples_needed(double q, std::size_t min_beyond) {
  std::size_t n = 1;
  while (n - nearest_rank(q, n) < min_beyond) ++n;
  return n;
}

Grade grade(const Answer& answer, const Observed& observed) {
  switch (observed.verdict) {
    case Verdict::Cex:
      if (!answer.fail || !observed.replay_ok) return Grade::Wrong;
      if (answer.depth >= 0 && observed.cex_depth != answer.depth)
        return Grade::Wrong;
      return Grade::Correct;
    case Verdict::Bound:
      return answer.fail ? Grade::Wrong : Grade::Correct;
    case Verdict::Limit:
    case Verdict::Rejected:
    case Verdict::Error:
      return Grade::Undecided;
  }
  return Grade::Undecided;
}

void Tally::add(const Answer& answer, const Observed& observed) {
  ++attempted;
  switch (grade(answer, observed)) {
    case Grade::Correct: ++correct; return;
    case Grade::Wrong: ++wrong; return;
    case Grade::Undecided: break;
  }
  if (observed.verdict == Verdict::Limit) ++limits;
  else if (observed.verdict == Verdict::Rejected) ++rejected;
  else ++errors;
}

double Tally::decided_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(attempted);
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix::below(std::uint64_t n) { return next() % n; }

int SplitMix::between(int lo, int hi) {
  return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double SplitMix::unit() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

ZipfStream::ZipfStream(std::size_t keys, double s, std::uint64_t seed)
    : rng_(seed) {
  cdf_.reserve(keys);
  double total = 0.0;
  for (std::size_t r = 1; r <= keys; ++r) {
    total += std::pow(static_cast<double>(r), -s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  key_of_rank_.resize(keys);
  for (std::size_t i = 0; i < keys; ++i) key_of_rank_[i] = i;
  for (std::size_t i = keys; i > 1; --i)
    std::swap(key_of_rank_[i - 1], key_of_rank_[rng_.below(i)]);
}

std::size_t ZipfStream::next() {
  const double u = rng_.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return key_of_rank_[rank];
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace e2ebench
