#include "trace/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace reco {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int n) {
  if (n <= 0) throw std::invalid_argument("Rng::uniform_int: n must be positive");
  return static_cast<int>(uniform() * n);
}

int Rng::uniform_int(int lo, int hi) { return lo + uniform_int(hi - lo + 1); }

double Rng::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Box-Muller; guard the log against a zero uniform draw.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_ = radius * std::sin(angle);
  have_spare_ = true;
  return radius * std::cos(angle);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

double Rng::pareto(double xm, double alpha) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

void Rng::sample_distinct(int n, int k, int* out) {
  if (k > n) throw std::invalid_argument("Rng::sample_distinct: k > n");
  std::vector<int> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j = i + uniform_int(n - i);
    std::swap(pool[i], pool[j]);
    out[i] = pool[i];
  }
}

}  // namespace reco
