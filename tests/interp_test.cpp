#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fasda/interp/interp_table.hpp"
#include "fasda/util/rng.hpp"

namespace fasda::interp {
namespace {

TEST(InterpTable, IndexSectionMatchesEq9) {
  const InterpConfig cfg{.num_sections = 14, .num_bins = 256};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // r² in [0.5, 1) is the top section ns-1; [0.25, 0.5) is ns-2; etc.
  EXPECT_EQ(table.index_of(0.75f).section, 13);
  EXPECT_EQ(table.index_of(0.5f).section, 13);
  EXPECT_EQ(table.index_of(0.49f).section, 12);
  EXPECT_EQ(table.index_of(0.26f).section, 12);
  EXPECT_EQ(table.index_of(std::ldexp(1.5f, -14)).section, 0);
}

TEST(InterpTable, IndexBinMatchesEq10) {
  const InterpConfig cfg{.num_sections = 4, .num_bins = 8};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // Section covering [0.5, 1): bins of width 1/16.
  EXPECT_EQ(table.index_of(0.5f).bin, 0);
  EXPECT_EQ(table.index_of(0.5f + 0.062f).bin, 0);
  EXPECT_EQ(table.index_of(0.5f + 0.0626f).bin, 1);
  EXPECT_EQ(table.index_of(0.99f).bin, 7);
}

TEST(InterpTable, FlagsOutOfRangeInputs) {
  const InterpConfig cfg{.num_sections = 6, .num_bins = 16};
  const auto table = InterpTable::build_r_pow(14, cfg);
  EXPECT_TRUE(table.index_of(std::ldexp(0.9f, -6)).below_range);
  EXPECT_TRUE(table.index_of(0.0f).below_range);
  EXPECT_TRUE(table.index_of(1.0f).above_range);
  EXPECT_TRUE(table.index_of(2.0f).above_range);
  EXPECT_FALSE(table.index_of(0.5f).below_range);
  EXPECT_FALSE(table.index_of(0.5f).above_range);
}

TEST(InterpTable, ExactAtBinEndpoints) {
  const InterpConfig cfg{.num_sections = 8, .num_bins = 32};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // At a bin's left edge the linear fit passes through f exactly (up to
  // float32 coefficient rounding).
  for (int s = 0; s < cfg.num_sections; ++s) {
    const double base = std::ldexp(1.0, s - cfg.num_sections);
    for (int b = 0; b < cfg.num_bins; b += 7) {
      const double x = base * (1.0 + static_cast<double>(b) / cfg.num_bins);
      const double exact = std::pow(x, -4.0);
      EXPECT_NEAR(table.eval(static_cast<float>(x)), exact, 2e-6 * exact);
    }
  }
}

// Property sweep over interpolation depth: error shrinks ~quadratically with
// bin count; the default (14, 256) is comfortably below float32 resolution
// demands of the force pipeline. `bins` is 64-bit so the struct has no
// padding: gtest names each case by a hex dump of the parameter, and padding
// bytes are indeterminate, which made the test names change between builds.
struct DepthCase {
  std::int64_t bins;
  double max_rel_error;
};
static_assert(sizeof(DepthCase) == sizeof(std::int64_t) + sizeof(double));

class InterpDepth : public ::testing::TestWithParam<DepthCase> {};

TEST_P(InterpDepth, R14ErrorBelowBound) {
  const auto [bins, bound] = GetParam();
  const InterpConfig cfg{.num_sections = 14, .num_bins = static_cast<int>(bins)};
  const auto table = InterpTable::build_r_pow(14, cfg);
  const double err = table.max_relative_error(
      [](double x) { return std::pow(x, -7.0); }, 8);
  EXPECT_LT(err, bound);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InterpDepth,
                         ::testing::Values(DepthCase{16, 4e-2},
                                           DepthCase{64, 2.5e-3},
                                           DepthCase{256, 2e-4},
                                           DepthCase{1024, 2e-5}));

class InterpAlpha : public ::testing::TestWithParam<int> {};

TEST_P(InterpAlpha, DefaultDepthAccurate) {
  const int alpha = GetParam();
  const auto table = InterpTable::build_r_pow(alpha, InterpConfig{});
  const double err = table.max_relative_error(
      [alpha](double x) { return std::pow(x, -alpha / 2.0); }, 8);
  EXPECT_LT(err, 2e-4) << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(LJExponents, InterpAlpha, ::testing::Values(6, 8, 12, 14));

TEST(InterpTable, SupportsArbitraryForceModels) {
  // The paper claims different force models need only a table swap; check a
  // non-LJ kernel (screened Coulomb-like) interpolates equally well.
  const auto f = [](double r2) {
    const double r = std::sqrt(r2);
    return std::exp(-3.0 * r) / r;
  };
  const auto table = InterpTable::build(f, InterpConfig{});
  EXPECT_LT(table.max_relative_error(f, 8), 1e-5);
}

TEST(InterpTable, EvalClampsOutOfRange) {
  const auto table = InterpTable::build_r_pow(8, InterpConfig{});
  EXPECT_GT(table.eval(std::ldexp(1.0f, -20)), 0.0f);  // clamps, stays finite
  EXPECT_NEAR(table.eval(1.0f), 1.0f, 2e-2);           // top bin extrapolation
}

TEST(InterpTable, StorageBitsCountsCoefficients) {
  const InterpConfig cfg{.num_sections = 4, .num_bins = 8};
  const auto table = InterpTable::build_r_pow(8, cfg);
  EXPECT_EQ(table.storage_bits(), 4u * 8u * 2u * 32u);
}

TEST(InterpTable, RejectsEmptyConfig) {
  EXPECT_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 0,
                                                        .num_bins = 8}),
               std::invalid_argument);
  EXPECT_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 4,
                                                        .num_bins = 0}),
               std::invalid_argument);
}

// Test-local copy of the frexp-based Eq. 9/10 index the table computed
// before it took the section and mantissa from the float's bits.
TableIndex frexp_index(float r2, const InterpConfig& cfg) {
  TableIndex idx;
  if (!(r2 > 0.0f) || r2 < std::ldexp(1.0f, -cfg.num_sections)) {
    idx.below_range = true;
    return idx;
  }
  if (r2 >= 1.0f) {
    idx.above_range = true;
    idx.section = cfg.num_sections - 1;
    idx.bin = cfg.num_bins - 1;
    return idx;
  }
  int exponent = 0;
  const float mantissa = std::frexp(r2, &exponent);
  idx.section = exponent - 1 + cfg.num_sections;
  int bin = static_cast<int>((2.0f * mantissa - 1.0f) * cfg.num_bins);
  if (bin >= cfg.num_bins) bin = cfg.num_bins - 1;
  idx.bin = bin;
  return idx;
}

::testing::AssertionResult same_index(const InterpTable& table, float r2) {
  const TableIndex got = table.index_of(r2);
  const TableIndex want = frexp_index(r2, table.config());
  if (got.section == want.section && got.bin == want.bin &&
      got.below_range == want.below_range &&
      got.above_range == want.above_range) {
    // And eval() at that index is the old a·r² + b, bit for bit.
    const BinCoeffs& c =
        table.coefficients()[static_cast<std::size_t>(want.section) *
                                 table.config().num_bins +
                             want.bin];
    const float old_eval = c.a * r2 + c.b;
    const float new_eval = table.eval(r2);
    if (std::bit_cast<std::uint32_t>(old_eval) ==
            std::bit_cast<std::uint32_t>(new_eval) ||
        (std::isnan(old_eval) && std::isnan(new_eval))) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "eval(" << r2 << ") = " << new_eval << ", was " << old_eval;
  }
  return ::testing::AssertionFailure()
         << "r2 bits 0x" << std::hex << std::bit_cast<std::uint32_t>(r2)
         << std::dec << ": (" << got.section << "," << got.bin << ","
         << got.below_range << got.above_range << ") vs frexp ("
         << want.section << "," << want.bin << "," << want.below_range
         << want.above_range << ")";
}

class IndexFromBits : public ::testing::TestWithParam<InterpConfig> {};

TEST_P(IndexFromBits, MatchesFrexpIndex) {
  const InterpConfig cfg = GetParam();
  const InterpTable table = InterpTable::build_r_pow(2, cfg);

  // Every section and bin boundary, and one ulp either side of it.
  for (int s = 0; s < cfg.num_sections; ++s) {
    for (int b = 0; b <= cfg.num_bins; ++b) {
      const float edge = static_cast<float>(
          std::ldexp(1.0 + static_cast<double>(b) / cfg.num_bins,
                     s - cfg.num_sections));
      for (const float r2 :
           {edge, std::nextafter(edge, 0.0f), std::nextafter(edge, 2.0f)}) {
        ASSERT_TRUE(same_index(table, r2));
      }
    }
  }

  // Zeros, subnormals, NaN, infinities, negatives and values >= 1.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();  // smallest normal
  for (const float r2 :
       {0.0f, -0.0f, denorm, 3 * denorm, std::nextafter(tiny, 0.0f),
        tiny / 3, tiny, nan, -nan, inf, -inf, -0.5f, -denorm, 1.0f,
        std::nextafter(1.0f, 0.0f), std::nextafter(1.0f, 2.0f), 1.5f, 2.0f,
        std::numeric_limits<float>::max()}) {
    EXPECT_TRUE(same_index(table, r2));
  }

  // A strided sweep over the bit patterns of every float in [+0, 1).
  for (std::uint32_t bits = 0; bits < 0x3f800000u; bits += 4093) {
    ASSERT_TRUE(same_index(table, std::bit_cast<float>(bits)));
  }
}

// The default config, a non-power-of-two bin count, a second section count,
// and n_s = 140 so the covered range reaches into the subnormals.
INSTANTIATE_TEST_SUITE_P(
    Configs, IndexFromBits,
    ::testing::Values(InterpConfig{14, 256}, InterpConfig{14, 200},
                      InterpConfig{9, 96}, InterpConfig{20, 7},
                      InterpConfig{140, 3}),
    [](const auto& info) {
      return "ns" + std::to_string(info.param.num_sections) + "_nb" +
             std::to_string(info.param.num_bins);
    });

TEST(InterpTable, RPowTablesAreBuiltOnceAndShared) {
  const InterpConfig cfg{.num_sections = 11, .num_bins = 48};
  const InterpTable first = InterpTable::build_r_pow(14, cfg);
  const InterpTable second = InterpTable::build_r_pow(14, cfg);
  EXPECT_EQ(first.coefficients().data(), second.coefficients().data());
  EXPECT_NE(InterpTable::build_r_pow(8, cfg).coefficients().data(),
            first.coefficients().data());

  // The shared table is the table a fresh build produces, bit for bit.
  const InterpTable fresh = InterpTable::build(
      [](double r2) { return std::pow(r2, -7.0); }, cfg);
  ASSERT_EQ(fresh.coefficients().size(), first.coefficients().size());
  for (std::size_t i = 0; i < fresh.coefficients().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fresh.coefficients()[i].a),
              std::bit_cast<std::uint32_t>(first.coefficients()[i].a));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fresh.coefficients()[i].b),
              std::bit_cast<std::uint32_t>(first.coefficients()[i].b));
  }
}

}  // namespace
}  // namespace fasda::interp
