#include "fasda/interp/interp_table.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

namespace fasda::interp {

InterpTable InterpTable::build(const std::function<double(double)>& f,
                               const InterpConfig& config) {
  if (config.num_sections < 1 || config.num_bins < 1) {
    throw std::invalid_argument("InterpConfig must have >=1 section and bin");
  }
  auto coeffs = std::make_shared<BinCoeffs[]>(
      static_cast<std::size_t>(config.num_sections) * config.num_bins);
  for (int s = 0; s < config.num_sections; ++s) {
    for (int b = 0; b < config.num_bins; ++b) {
      const double x0 = bin_left_edge(config, s, b);
      const double x1 = bin_left_edge(config, s, b + 1);
      const double f0 = f(x0);
      const double f1 = f(x1);
      const double slope = (f1 - f0) / (x1 - x0);
      coeffs[static_cast<std::size_t>(s) * config.num_bins + b] = {
          static_cast<float>(slope), static_cast<float>(f0 - slope * x0)};
    }
  }
  return InterpTable(config, std::move(coeffs));
}

InterpTable InterpTable::build_r_pow(int alpha, const InterpConfig& config) {
  // Process-wide memo: entries are immutable once inserted and live until
  // exit. The lock is held across a cold build so concurrent first users of
  // one config wait for a single build rather than racing to insert.
  static std::mutex mutex;
  static std::map<std::tuple<int, int, int>, InterpTable> memo;
  const std::tuple<int, int, int> key{alpha, config.num_sections,
                                      config.num_bins};
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = memo.find(key);
  if (it == memo.end()) {
    const double exponent = -static_cast<double>(alpha) / 2.0;
    InterpTable table = build(
        [exponent](double r2) { return std::pow(r2, exponent); }, config);
    it = memo.emplace(key, std::move(table)).first;
  }
  return it->second;
}

double InterpTable::bin_left_edge(const InterpConfig& config, int section,
                                  int bin) {
  // Section s covers [2^(s-ns), 2^(s-ns+1)); bin b starts at
  // 2^(s-ns) * (1 + b/nb).
  const double section_base = std::ldexp(1.0, section - config.num_sections);
  return section_base * (1.0 + static_cast<double>(bin) / config.num_bins);
}

double InterpTable::max_relative_error(const std::function<double(double)>& f,
                                       int samples_per_bin) const {
  double worst = 0.0;
  for (int s = 0; s < config_.num_sections; ++s) {
    for (int b = 0; b < config_.num_bins; ++b) {
      const double x0 = bin_left_edge(config_, s, b);
      const double x1 = bin_left_edge(config_, s, b + 1);
      for (int k = 0; k < samples_per_bin; ++k) {
        const double x =
            x0 + (x1 - x0) * (k + 0.5) / samples_per_bin;
        const double exact = f(x);
        const double approx = eval(static_cast<float>(x));
        const double rel = std::abs(approx - exact) / std::abs(exact);
        if (rel > worst) worst = rel;
      }
    }
  }
  return worst;
}

}  // namespace fasda::interp
