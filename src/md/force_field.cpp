#include "fasda/md/force_field.hpp"

#include <cmath>

#include "fasda/md/units.hpp"

namespace fasda::md {

ElementId ForceField::add_element(std::string name, double epsilon_kcal_per_mol,
                                  double sigma_angstrom, double mass_amu,
                                  double charge_e) {
  if (elements_.size() >= 255) {
    throw std::length_error("ForceField supports at most 255 elements");
  }
  elements_.push_back(Element{std::move(name),
                              units::from_kcal_per_mol(epsilon_kcal_per_mol),
                              sigma_angstrom, mass_amu, charge_e});
  const std::size_t n = elements_.size();
  mixed_.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const auto ea = static_cast<ElementId>(a);
      const auto eb = static_cast<ElementId>(b);
      const double eps = epsilon(ea, eb);
      const double sig = sigma(ea, eb);
      mixed_[a * n + b] = Mixed{
          eps, 4.0 * eps, sig * sig,
          kCoulomb * elements_[a].charge * elements_[b].charge};
    }
  }
  return static_cast<ElementId>(n - 1);
}

const ForceField::Mixed& ForceField::mixed(ElementId a, ElementId b) const {
  const std::size_t n = elements_.size();
  if (a >= n || b >= n) {
    throw std::out_of_range("ForceField: element id out of range");
  }
  return mixed_[a * n + b];
}

ForceField ForceField::sodium() {
  ForceField ff;
  ff.add_element("Na", 0.0469, 2.43, 22.98977);
  return ff;
}

ForceField ForceField::sodium_chloride() {
  ForceField ff;
  // Joung-Cheatham-style monovalent ion parameters.
  ff.add_element("Na+", 0.0874, 2.439, 22.98977, +1.0);
  ff.add_element("Cl-", 0.0355, 4.478, 35.453, -1.0);
  return ff;
}

double ForceField::epsilon(ElementId a, ElementId b) const {
  return std::sqrt(element(a).epsilon * element(b).epsilon);
}

double ForceField::sigma(ElementId a, ElementId b) const {
  return 0.5 * (element(a).sigma + element(b).sigma);
}

double ForceField::lj_energy(double r2, ElementId a, ElementId b) const {
  const Mixed& m = mixed(a, b);
  const double s2 = m.sig2 / r2;
  const double s6 = s2 * s2 * s2;
  return m.four_eps * (s6 * s6 - s6);
}

geom::Vec3d ForceField::lj_force(const geom::Vec3d& dr, ElementId a,
                                 ElementId b) const {
  const Mixed& m = mixed(a, b);
  const double r2 = dr.norm2();
  const double s2 = m.sig2 / r2;
  const double s6 = s2 * s2 * s2;
  // ε/σ²·[48(σ/r)^14 − 24(σ/r)^8] = (ε/r²)·[48(σ/r)^12 − 24(σ/r)^6]
  const double magnitude_over_r = m.eps / r2 * (48.0 * s6 * s6 - 24.0 * s6);
  return dr * magnitude_over_r;
}

double ForceField::ewald_real_energy(double r2, ElementId a, ElementId b,
                                     double beta) const {
  const double r = std::sqrt(r2);
  return mixed(a, b).coulomb * std::erfc(beta * r) / r;
}

geom::Vec3d ForceField::ewald_real_force(const geom::Vec3d& dr, ElementId a,
                                         ElementId b, double beta) const {
  const double r2 = dr.norm2();
  const double r = std::sqrt(r2);
  const double br = beta * r;
  constexpr double kTwoOverSqrtPi = 1.1283791670955126;
  const double magnitude_over_r =
      mixed(a, b).coulomb *
      (std::erfc(br) + kTwoOverSqrtPi * br * std::exp(-br * br)) / (r2 * r);
  return dr * magnitude_over_r;
}

double ForceField::pair_energy(double r2, ElementId a, ElementId b,
                               const ForceTerms& terms) const {
  double e = 0.0;
  if (terms.lj) e += lj_energy(r2, a, b);
  if (terms.ewald_real) e += ewald_real_energy(r2, a, b, terms.ewald_beta);
  return e;
}

geom::Vec3d ForceField::pair_force(const geom::Vec3d& dr, ElementId a,
                                   ElementId b, const ForceTerms& terms) const {
  geom::Vec3d f{};
  if (terms.lj) f += lj_force(dr, a, b);
  if (terms.ewald_real) f += ewald_real_force(dr, a, b, terms.ewald_beta);
  return f;
}

std::vector<PairForceCoeffs> ForceField::force_coeff_table(double cutoff) const {
  const std::size_t n = elements_.size();
  std::vector<PairForceCoeffs> table(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double eps = epsilon(static_cast<ElementId>(a), static_cast<ElementId>(b));
      const double sig = sigma(static_cast<ElementId>(a), static_cast<ElementId>(b));
      const double ratio = sig / cutoff;
      const double r6 = std::pow(ratio, 6);
      // F(internal) = (c14·u^-14 − c8·u^-8)·u_vec with u_vec the normalized
      // (cell-unit) displacement: c14 = 48εσ¹²/Rc¹³ = 48ε(σ/Rc)¹²/Rc.
      table[a * n + b] =
          PairForceCoeffs{static_cast<float>(48.0 * eps * r6 * r6 / cutoff),
                          static_cast<float>(24.0 * eps * r6 / cutoff)};
    }
  }
  return table;
}

std::vector<PairEnergyCoeffs> ForceField::energy_coeff_table(double cutoff) const {
  const std::size_t n = elements_.size();
  std::vector<PairEnergyCoeffs> table(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double eps = epsilon(static_cast<ElementId>(a), static_cast<ElementId>(b));
      const double sig = sigma(static_cast<ElementId>(a), static_cast<ElementId>(b));
      const double r6 = std::pow(sig / cutoff, 6);
      table[a * n + b] = PairEnergyCoeffs{static_cast<float>(4.0 * eps * r6 * r6),
                                          static_cast<float>(4.0 * eps * r6)};
    }
  }
  return table;
}

std::vector<float> ForceField::ewald_force_coeff_table(double cutoff) const {
  const std::size_t n = elements_.size();
  std::vector<float> table(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      table[a * n + b] = static_cast<float>(
          kCoulomb * elements_[a].charge * elements_[b].charge /
          (cutoff * cutoff));
    }
  }
  return table;
}

std::vector<float> ForceField::ewald_energy_coeff_table(double cutoff) const {
  const std::size_t n = elements_.size();
  std::vector<float> table(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      table[a * n + b] = static_cast<float>(
          kCoulomb * elements_[a].charge * elements_[b].charge / cutoff);
    }
  }
  return table;
}

}  // namespace fasda::md
