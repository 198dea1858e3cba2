#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

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

}  // namespace
}  // namespace fasda::interp
