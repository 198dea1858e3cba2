#pragma once
// The numeric context shared by every force pipeline in a cluster: the
// r^-14 / r^-8 interpolation tables and the element-pair coefficient ROM
// (Fig. 6). Owned by the Simulation; PEs hold a const reference.

#include <cstdint>
#include <vector>

#include "fasda/fixed/fixed_point.hpp"
#include "fasda/geom/vec3.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/force_field.hpp"

namespace fasda::pe {

class ForceModel {
 public:
  /// `terms` selects which RL components the pipelines compute (default LJ
  /// only, the paper's evaluation). Enabling ewald_real adds one more
  /// table lookup and a charge-product coefficient per pair — "nearly
  /// identical" pipelines (§2.1).
  ForceModel(const md::ForceField& ff, double cutoff,
             const interp::InterpConfig& table_config,
             const md::ForceTerms& terms = {});

  /// The filter acceptance test: inside the cutoff and above the excluded
  /// small-r region, computed on exact fixed-point r² (§3.3).
  bool filter(std::uint64_t r2q) const {
    return r2q < fixed::kR2One && r2q >= min_r2q_;
  }

  /// Force on particle `a` due to `b`, with both positions in the same
  /// cell-relative frame. Float32 datapath.
  geom::Vec3f pair_force(const fixed::FixedVec3& a, md::ElementId ea,
                         const fixed::FixedVec3& b, md::ElementId eb) const {
    const float r2 = fixed::r2_to_float(fixed::r2_fixed(a, b));
    // All three tables share one config, so one index serves them all.
    const interp::TableIndex idx = table14_.index_of(r2);
    float magnitude = 0.0f;
    if (terms_.lj) {
      const md::PairForceCoeffs& k = coeffs_[ea * num_elements_ + eb];
      magnitude +=
          k.c14 * table14_.eval(r2, idx) - k.c8 * table8_.eval(r2, idx);
    }
    if (terms_.ewald_real) {
      magnitude +=
          ewald_coeffs_[ea * num_elements_ + eb] * table_ew_.eval(r2, idx);
    }
    return fixed::displacement_to_float(a, b) * magnitude;
  }

  std::uint64_t min_r2q() const { return min_r2q_; }
  const md::ForceTerms& terms() const { return terms_; }

 private:
  md::ForceTerms terms_;
  interp::InterpTable table14_;
  interp::InterpTable table8_;
  interp::InterpTable table_ew_;
  std::vector<md::PairForceCoeffs> coeffs_;
  std::vector<float> ewald_coeffs_;
  std::size_t num_elements_;
  std::uint64_t min_r2q_;
};

}  // namespace fasda::pe
