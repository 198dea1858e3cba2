#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "fasda/geom/cell_grid.hpp"

namespace fasda::geom {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3d a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3d{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3d{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3d{2, 4, 6}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3d{3, 4, 0}).norm(), 5.0);
}

TEST(HalfShell, ThirteenForwardThirteenBackward) {
  const auto half = half_shell_offsets();
  const auto full = full_shell_offsets();
  EXPECT_EQ(half.size(), 13u);
  EXPECT_EQ(full.size(), 26u);
  for (const auto& d : half) EXPECT_TRUE(is_forward_offset(d));
  for (std::size_t i = 13; i < 26; ++i) EXPECT_FALSE(is_forward_offset(full[i]));
}

TEST(HalfShell, ForwardAndBackwardAreNegations) {
  // For every forward offset, its negation must be a backward offset: this
  // is exactly the Newton's-third-law pairing property.
  const auto full = full_shell_offsets();
  for (std::size_t i = 0; i < 13; ++i) {
    const IVec3 neg{-full[i].x, -full[i].y, -full[i].z};
    bool found = false;
    for (std::size_t j = 13; j < 26; ++j) found |= full[j] == neg;
    EXPECT_TRUE(found);
  }
}

TEST(CellGrid, Eq7IndexingRoundTrips) {
  const CellGrid grid({4, 5, 3}, 1.0);
  std::set<CellId> seen;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 5; ++y) {
      for (int z = 0; z < 3; ++z) {
        const CellId id = grid.cid({x, y, z});
        EXPECT_EQ(grid.coords(id), (IVec3{x, y, z}));
        seen.insert(id);
      }
    }
  }
  EXPECT_EQ(seen.size(), 60u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 59);
  // Spot-check the formula CID = Dy*Dz*x + Dz*y + z.
  EXPECT_EQ(grid.cid({2, 3, 1}), 5 * 3 * 2 + 3 * 3 + 1);
}

TEST(CellGrid, RejectsDegenerateConfigs) {
  EXPECT_THROW(CellGrid({2, 3, 3}, 1.0), std::invalid_argument);
  EXPECT_THROW(CellGrid({3, 3, 3}, 0.0), std::invalid_argument);
  EXPECT_THROW(CellGrid({3, 3, 3}, -1.0), std::invalid_argument);
}

TEST(CellGrid, WrapIsPeriodic) {
  const CellGrid grid({3, 4, 5}, 2.0);
  EXPECT_EQ(grid.wrap({-1, 4, 5}), (IVec3{2, 0, 0}));
  EXPECT_EQ(grid.wrap({3, -1, -5}), (IVec3{0, 3, 0}));
  EXPECT_EQ(grid.wrap({1, 2, 3}), (IVec3{1, 2, 3}));
}

TEST(CellGrid, WrapPositionStaysInBox) {
  const CellGrid grid({3, 3, 3}, 8.5);
  const Vec3d p = grid.wrap_position({-1.0, 26.0, 25.5 + 25.5});
  EXPECT_NEAR(p.x, 24.5, 1e-12);
  EXPECT_NEAR(p.y, 0.5, 1e-12);
  EXPECT_NEAR(p.z, 0.0, 1e-12);
}

TEST(CellGrid, CellOfMapsBoundariesSafely) {
  const CellGrid grid({3, 3, 3}, 1.0);
  EXPECT_EQ(grid.cell_of({0.0, 0.0, 0.0}), (IVec3{0, 0, 0}));
  EXPECT_EQ(grid.cell_of({2.999999, 0.5, 1.5}), (IVec3{2, 0, 1}));
  // Exactly at the box edge wraps to cell 0.
  EXPECT_EQ(grid.cell_of({3.0, 3.0, 3.0}), (IVec3{0, 0, 0}));
}

TEST(CellGrid, CellDisplacementMinImage) {
  const CellGrid grid({4, 4, 4}, 1.0);
  EXPECT_EQ(grid.cell_displacement({0, 0, 0}, {1, 0, 0}), (IVec3{1, 0, 0}));
  EXPECT_EQ(grid.cell_displacement({0, 0, 0}, {3, 0, 0}), (IVec3{-1, 0, 0}));
  // Distance 2 in a 4-wide grid: ties map to +2 (not a neighbour either way).
  EXPECT_EQ(grid.cell_displacement({0, 0, 0}, {2, 0, 0}).x, 2);
}

TEST(CellGrid, MinImageVector) {
  const CellGrid grid({3, 3, 3}, 10.0);
  const Vec3d d = grid.min_image({1.0, 1.0, 1.0}, {29.0, 1.0, 1.0});
  EXPECT_NEAR(d.x, -2.0, 1e-12);
  EXPECT_NEAR(d.y, 0.0, 1e-12);
}

TEST(CellGrid, ForwardNeighborCountsArePartitioned) {
  // Every cell must have exactly 13 forward and 13 backward neighbours, and
  // `b forward-of a` must imply `a not forward-of b`.
  const CellGrid grid({3, 4, 5}, 1.0);
  for (int id = 0; id < grid.num_cells(); ++id) {
    const IVec3 a = grid.coords(id);
    int forward = 0;
    for (const IVec3& d : full_shell_offsets()) {
      const IVec3 b = grid.wrap(a + d);
      const bool fwd = grid.is_forward_neighbor(a, b);
      const bool bwd = grid.is_forward_neighbor(b, a);
      EXPECT_NE(fwd, bwd) << "pair must be ordered exactly one way";
      forward += fwd;
    }
    EXPECT_EQ(forward, 13);
  }
}

TEST(CellGrid, SelfIsNeverNeighbor) {
  const CellGrid grid({3, 3, 3}, 1.0);
  for (int id = 0; id < grid.num_cells(); ++id) {
    const IVec3 c = grid.coords(id);
    EXPECT_FALSE(grid.is_forward_neighbor(c, c));
  }
}

// Test-local copies of the libm/modulo forms min_image() and
// cell_displacement() had before they went inline; the inline kernels must
// agree with them bit for bit.
Vec3d min_image_with_std_round(const CellGrid& grid, const Vec3d& from,
                               const Vec3d& to) {
  const Vec3d b = grid.box();
  Vec3d d = to - from;
  d.x -= b.x * std::round(d.x / b.x);
  d.y -= b.y * std::round(d.y / b.y);
  d.z -= b.z * std::round(d.z / b.z);
  return d;
}

int min_image_component_by_modulo(int d, int dim) {
  d %= dim;
  if (d < 0) d += dim;
  return d > dim / 2 ? d - dim : d;
}

IVec3 cell_displacement_by_modulo(const CellGrid& grid, const IVec3& from,
                                  const IVec3& to) {
  const IVec3 dims = grid.dims();
  return {min_image_component_by_modulo(to.x - from.x, dims.x),
          min_image_component_by_modulo(to.y - from.y, dims.y),
          min_image_component_by_modulo(to.z - from.z, dims.z)};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const Vec3d& got, const Vec3d& want) {
  EXPECT_EQ(bits(got.x), bits(want.x)) << got.x << " vs " << want.x;
  EXPECT_EQ(bits(got.y), bits(want.y)) << got.y << " vs " << want.y;
  EXPECT_EQ(bits(got.z), bits(want.z)) << got.z << " vs " << want.z;
}

TEST(MinImageKernel, RoundHalfAwayMatchesStdRound) {
  const double inf = std::numeric_limits<double>::infinity();
  const double cases[] = {0.0,
                          0.5,
                          1.5,
                          0.49999999999999994,  // largest double below 0.5
                          1.4999999999999998,   // largest double below 1.5
                          std::nextafter(0.5, 1.0),
                          std::nextafter(1.5, 2.0),
                          1.0,
                          0.25,
                          2.5,
                          3.4999999,
                          4503599627370495.5,  // 2^52 - 0.5
                          4503599627370496.0,  // 2^52
                          1e300,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          inf};
  for (const double c : cases) {
    for (const double q : {c, -c}) {
      EXPECT_EQ(bits(round_half_away(q)), bits(std::round(q))) << q;
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(round_half_away(nan)));
  EXPECT_TRUE(std::isnan(round_half_away(-nan)));

  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  for (int i = 0; i < 200000; ++i) {
    const double q = u(rng);
    ASSERT_EQ(bits(round_half_away(q)), bits(std::round(q))) << q;
  }
}

TEST(MinImageKernel, MinImageMatchesStdRoundFormBitwise) {
  for (const auto& [dims, cell] :
       {std::pair{IVec3{3, 3, 3}, 8.5}, std::pair{IVec3{4, 5, 7}, 1.3},
        std::pair{IVec3{10, 3, 6}, 0.1}}) {
    const CellGrid grid(dims, cell);
    const Vec3d b = grid.box();
    // Exact half-box and whole-box separations, zeros of both signs.
    const Vec3d special[] = {{0.0, -0.0, 0.0},
                             {b.x / 2, b.y / 2, b.z / 2},
                             {-b.x / 2, -b.y / 2, -b.z / 2},
                             {1.5 * b.x, -1.5 * b.y, 2.5 * b.z},
                             {b.x, -b.y, 3 * b.z},
                             {std::nextafter(b.x / 2, 0.0),
                              std::nextafter(-b.y / 2, 0.0),
                              std::nextafter(1.5 * b.z, 0.0)}};
    for (const Vec3d& to : special) {
      for (const Vec3d& from :
           {Vec3d{0.0, 0.0, 0.0}, Vec3d{-0.0, -0.0, -0.0}}) {
        expect_same_bits(grid.min_image(from, to),
                         min_image_with_std_round(grid, from, to));
      }
    }
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Vec3d odd_to{nan, inf, -inf};
    const Vec3d odd = grid.min_image({0, 0, 0}, odd_to);
    const Vec3d odd_want = min_image_with_std_round(grid, {0, 0, 0}, odd_to);
    EXPECT_EQ(std::isnan(odd.x), std::isnan(odd_want.x));
    EXPECT_EQ(std::isnan(odd.y), std::isnan(odd_want.y));
    EXPECT_EQ(std::isnan(odd.z), std::isnan(odd_want.z));

    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> u(-2.0, 3.0);
    for (int i = 0; i < 50000; ++i) {
      const Vec3d from{u(rng) * b.x, u(rng) * b.y, u(rng) * b.z};
      const Vec3d to{u(rng) * b.x, u(rng) * b.y, u(rng) * b.z};
      const Vec3d got = grid.min_image(from, to);
      const Vec3d want = min_image_with_std_round(grid, from, to);
      ASSERT_EQ(bits(got.x), bits(want.x));
      ASSERT_EQ(bits(got.y), bits(want.y));
      ASSERT_EQ(bits(got.z), bits(want.z));
    }
  }
}

// min_image() folds |d| < t15 without dividing; t05 and t15 are the
// smallest magnitudes whose quotient by the box rounds to >= 0.5 and
// >= 1.5. Pin both definitions, then the result bit for bit against the
// division form on the thresholds, their neighbours, the exact half and
// one-and-a-half boxes, zeros, non-finite values, far images and a seeded
// sweep, for every axis of grids with exact and inexact box lengths.
TEST(MinImageKernel, DivisionFreeRangeMatchesDivisionFormBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto axes = [](const Vec3d& v) {
    return std::array<double, 3>{v.x, v.y, v.z};
  };
  for (const auto& [dims, cell] :
       {std::pair{IVec3{3, 3, 3}, 8.5}, std::pair{IVec3{6, 3, 3}, 8.5},
        std::pair{IVec3{4, 5, 7}, 1.0}, std::pair{IVec3{3, 3, 3}, 0.1},
        std::pair{IVec3{3, 4, 5},
                  std::numeric_limits<double>::denorm_min()}}) {
    const CellGrid grid(dims, cell);
    const auto box = axes(grid.box());
    const auto t05 = axes(grid.t05());
    const auto t15 = axes(grid.t15());
    for (int k = 0; k < 3; ++k) {
      const double L = box[k];
      for (const auto& [t, q] : {std::pair{t05[k], 0.5}, {t15[k], 1.5}}) {
        EXPECT_GE(t / L, q) << L;
        EXPECT_LT(std::nextafter(t, 0.0) / L, q) << L;
      }
      std::vector<double> values = {0.0, 0.5 * L, 1.5 * L, L, 2.0 * L,
                                    3.0 * L, 1e6 * L, 0x1p53 * L, inf, nan};
      for (const double t : {t05[k], t15[k]}) {
        double lo = t, hi = t;
        for (int step = 0; step < 3; ++step) {
          values.push_back(lo);
          values.push_back(hi);
          lo = std::nextafter(lo, 0.0);
          hi = std::nextafter(hi, inf);
        }
      }
      std::mt19937_64 rng(17 + static_cast<unsigned>(k));
      std::uniform_real_distribution<double> u(0.0, 3.0);
      for (int i = 0; i < 20000; ++i) values.push_back(u(rng) * L);
      for (const double a : values) {
        for (const double d : {a, -a}) {
          Vec3d to{0.0, 0.0, 0.0};
          (k == 0 ? to.x : k == 1 ? to.y : to.z) = d;
          const double got = axes(grid.min_image({0.0, 0.0, 0.0}, to))[k];
          const double want = d - L * std::round(d / L);
          if (std::isnan(want)) {
            ASSERT_TRUE(std::isnan(got)) << d << " on box " << L;
          } else {
            ASSERT_EQ(bits(got), bits(want)) << d << " on box " << L;
          }
        }
      }
    }
  }
}

TEST(MinImageKernel, CellDisplacementMatchesModuloForm) {
  for (int n = 3; n <= 10; ++n) {
    const CellGrid grid({n, n, n}, 1.0);
    for (CellId a = 0; a < grid.num_cells(); ++a) {
      for (CellId c = 0; c < grid.num_cells(); ++c) {
        const IVec3 from = grid.coords(a);
        const IVec3 to = grid.coords(c);
        ASSERT_EQ(grid.cell_displacement(from, to),
                  cell_displacement_by_modulo(grid, from, to));
      }
    }
  }
  // Out-of-range coordinates take the modulo fallback.
  const CellGrid grid({3, 4, 7}, 1.0);
  const int values[] = {-1000003, -29, -8, -7, -4, -3, -1, 0,
                        3,        4,   7,  8,  13, 29, 1000003};
  for (const int f : values) {
    for (const int t : values) {
      const IVec3 from{f, t, f};
      const IVec3 to{t, f, t - f};
      ASSERT_EQ(grid.cell_displacement(from, to),
                cell_displacement_by_modulo(grid, from, to))
          << f << " " << t;
    }
  }
}

}  // namespace
}  // namespace fasda::geom
