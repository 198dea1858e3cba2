#include "fasda/md/datapath.hpp"

#include <cmath>

#include "fasda/interp/ewald.hpp"

namespace fasda::md {

Datapath::Datapath(const ForceField& ff, double cutoff,
                   const interp::InterpConfig& table, const ForceTerms& terms,
                   double dt_fs, double cell_edge)
    : terms_(terms),
      table14_(interp::InterpTable::build_r_pow(14, table)),
      table8_(interp::InterpTable::build_r_pow(8, table)),
      table_ew_(terms.ewald_real
                    ? interp::build_ewald_force_table(terms.ewald_beta * cutoff,
                                                      table)
                    : interp::InterpTable::build_r_pow(2, table)),
      coeffs_(ff.force_coeff_table(cutoff)),
      ewald_coeffs_(ff.ewald_force_coeff_table(cutoff)),
      num_elements_(ff.num_elements()),
      min_r2q_(fixed::kR2One >> table.num_sections),
      dt_(static_cast<float>(dt_fs)),
      inv_cell_(1.0 / cell_edge) {
  for (std::size_t e = 0; e < num_elements_; ++e) {
    inv_mass_.push_back(static_cast<float>(
        1.0 / ff.element(static_cast<ElementId>(e)).mass));
  }
}

Motion Datapath::motion_update(const fixed::FixedVec3& pos,
                               const geom::Vec3f& vel, const geom::Vec3f& force,
                               ElementId elem) const {
  Motion m{pos, vel + force * (dt_ * inv_mass_[elem]), {}};
  // The position delta is quantized straight onto the fixed-point grid per
  // axis and added as an integer, so tiny deltas never round away against
  // a large float mantissa (§4.2).
  auto drift = [&](fixed::FixedCoord& c, float v, int& shift) {
    const double delta_cells =
        static_cast<double>(v) * static_cast<double>(dt_) * inv_cell_;
    const auto delta_q = static_cast<std::int64_t>(
        std::llround(delta_cells * fixed::FixedCoord::kOne));
    std::int64_t raw = static_cast<std::int64_t>(c.raw()) + delta_q;
    shift = static_cast<int>(raw >> fixed::FixedCoord::kFracBits) - 2;
    raw -= static_cast<std::int64_t>(shift) *
           static_cast<std::int64_t>(fixed::FixedCoord::kOne);
    c = fixed::FixedCoord::from_raw(static_cast<std::uint32_t>(raw));
  };
  drift(m.pos.x, m.vel.x, m.shift.x);
  drift(m.pos.y, m.vel.y, m.shift.y);
  drift(m.pos.z, m.vel.z, m.shift.z);
  return m;
}

}  // namespace fasda::md
