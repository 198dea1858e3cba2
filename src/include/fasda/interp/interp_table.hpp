#pragma once
// Force table-lookup interpolation (§3.4, Eqs. 8-10, Fig. 7).
//
// Instead of computing r^-α directly (α = 14, 8 for the LJ force; 12, 6 for
// the potential), the hardware evaluates f(r²) by piecewise-linear
// interpolation:   f(r²) ≈ a(s,b)·r² + b(s,b)
// where the section index s comes from the exponent bits of the float32 r²
// (Eq. 9) and the bin index b from its mantissa bits (Eq. 10). With the
// cutoff radius normalized to 1, valid r² lies in (0, 1], so sections cover
// [2^-ns, 1) and the region below 2^-ns is excluded as non-physically high
// energy (Fig. 7).
//
// Tables are built for arbitrary f, which is how the paper supports
// "different force models with trivial modification".

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>

namespace fasda::interp {

struct InterpConfig {
  int num_sections = 14;  ///< n_s: sections below r² = 1, one per exponent
  int num_bins = 256;     ///< n_b: equal-width bins per section

  bool operator==(const InterpConfig&) const = default;
};

/// Section/bin index pair for a given r² (float32 semantics).
struct TableIndex {
  int section = 0;
  int bin = 0;
  bool below_range = false;  ///< r² < 2^-ns: excluded small-r region
  bool above_range = false;  ///< r² >= 1: beyond the cutoff
};

/// One bin's Eq. 8 coefficients: f(r²) ≈ a·r² + b.
struct BinCoeffs {
  float a = 0.0f;
  float b = 0.0f;
};

class InterpTable {
 public:
  /// Builds a table for f over (0, 1]; f is sampled in double precision and
  /// coefficients are stored as float32, exactly like coefficient BRAMs.
  static InterpTable build(const std::function<double(double)>& f,
                           const InterpConfig& config);

  /// Convenience: f(r²) = r^-alpha = (r²)^(-alpha/2). The table is a pure
  /// function of (alpha, config), so it is built once per process and every
  /// later call shares the same read-only coefficients (thread-safe; see
  /// DESIGN.md "Host numerics").
  static InterpTable build_r_pow(int alpha, const InterpConfig& config);

  const InterpConfig& config() const { return config_; }

  /// Computes the section/bin index of a float32 r² (Eqs. 9-10). Tables
  /// with the same config agree on every index, so one index_of() result
  /// may be reused across them.
  TableIndex index_of(float r2) const;

  /// Evaluates the interpolation in float32. Out-of-range inputs clamp to
  /// the nearest bin (the hardware filter guarantees in-range inputs; the
  /// clamp keeps the functional model total).
  float eval(float r2) const { return eval(r2, index_of(r2)); }

  /// eval() at an index already computed by index_of(r2) on a table with
  /// the same config.
  float eval(float r2, const TableIndex& idx) const {
    const BinCoeffs& c =
        coeffs_[static_cast<std::size_t>(idx.section) * config_.num_bins +
                static_cast<std::size_t>(idx.bin)];
    return c.a * r2 + c.b;
  }

  /// Maximum |eval - f| / |f| over `samples_per_bin` probes per bin,
  /// restricted to the covered range. Used by accuracy tests/ablation.
  double max_relative_error(const std::function<double(double)>& f,
                            int samples_per_bin = 8) const;

  /// The coefficient array, row-major [section][bin].
  std::span<const BinCoeffs> coefficients() const {
    return {coeffs_.get(), num_coeffs()};
  }

  /// Coefficient storage footprint in bits (two float32 per bin), used by
  /// the resource model.
  std::uint64_t storage_bits() const {
    return static_cast<std::uint64_t>(num_coeffs()) * 2 * 32;
  }

 private:
  InterpTable(InterpConfig config, std::shared_ptr<const BinCoeffs[]> coeffs)
      : config_(config),
        min_r2_(std::ldexp(1.0f, -config.num_sections)),
        coeffs_(std::move(coeffs)) {}

  std::size_t num_coeffs() const {
    return static_cast<std::size_t>(config_.num_sections) * config_.num_bins;
  }

  static double bin_left_edge(const InterpConfig& config, int section,
                               int bin);

  InterpConfig config_;
  float min_r2_;  ///< 2^-ns, the bottom of section 0
  // Row-major [section][bin]. Shared between copies (and, for build_r_pow,
  // between every engine in the process); never written after build().
  std::shared_ptr<const BinCoeffs[]> coeffs_;
};

inline TableIndex InterpTable::index_of(float r2) const {
  TableIndex idx;
  if (!(r2 > 0.0f) || r2 < min_r2_) {
    idx.below_range = true;
    return idx;
  }
  if (r2 >= 1.0f) {
    idx.above_range = true;
    idx.section = config_.num_sections - 1;
    idx.bin = config_.num_bins - 1;
    return idx;
  }
  // r2 = mantissa * 2^exponent with mantissa in [0.5, 1), as frexp would
  // return it: for a normal float the exponent is the biased exponent field
  // minus 126, and the mantissa is the same significand with its exponent
  // field set to 126. Subnormals (only reachable for n_s > 126) keep frexp.
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(r2);
  const int biased = static_cast<int>(bits >> 23);  // sign is clear: r2 > 0
  int exponent = 0;
  float mantissa = 0.0f;
  if (biased != 0) [[likely]] {
    exponent = biased - 126;
    mantissa = std::bit_cast<float>((bits & 0x007fffffu) | (126u << 23));
  } else {
    mantissa = std::frexp(r2, &exponent);
  }
  // Eq. 9: s = floor(log2(r²)) + n_s = exponent - 1 + n_s.
  idx.section = exponent - 1 + config_.num_sections;
  // Eq. 10: b = floor((2^(ns-s) * r² - 1) * n_b); 2^(ns-s)*r² = 2*mantissa.
  int bin = static_cast<int>((2.0f * mantissa - 1.0f) * config_.num_bins);
  if (bin >= config_.num_bins) bin = config_.num_bins - 1;
  idx.bin = bin;
  return idx;
}

}  // namespace fasda::interp
