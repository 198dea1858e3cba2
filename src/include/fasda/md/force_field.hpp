#pragma once
// Lennard-Jones force field (Eqs. 1-2) with per-element parameters and
// Lorentz-Berthelot mixing. Provides both the analytic double-precision
// evaluation used by the reference engine and the pre-folded float32
// pair-coefficient tables that the FASDA force pipeline looks up by element
// type (Fig. 6: "the elements are used to index a table-lookup to retrieve
// pre-calculated coefficients").

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fasda/geom/vec3.hpp"

namespace fasda::md {

using ElementId = std::uint8_t;

struct Element {
  std::string name;
  double epsilon;  ///< dispersion energy, internal units (see units.hpp)
  double sigma;    ///< zero-potential distance, Å
  double mass;     ///< amu
  double charge;   ///< elementary charges
};

/// Which range-limited force components are evaluated (§2.1: "RL forces
/// have two components: the short range term of the electrostatic force
/// obtained using the Particle Mesh Ewald method, and the force deduced
/// from the Lennard-Jones potential"). The paper's evaluation enables only
/// LJ; the Ewald real-space term uses a nearly identical pipeline — one
/// more interpolation table and a charge-product coefficient.
struct ForceTerms {
  bool lj = true;
  bool ewald_real = false;
  double ewald_beta = 0.3;  ///< Ewald splitting parameter, Å⁻¹
};

/// Pipeline coefficients with the cutoff folded in: with u = r / R_c the
/// pairwise force in internal units is
///   F(u) = (c14 · u^-14 − c8 · u^-8) · u_vec,
/// i.e. c14 = 48·ε·σ¹²/R_c¹³ and c8 = 24·ε·σ⁶/R_c⁷.
struct PairForceCoeffs {
  float c14;
  float c8;
};

/// Same folding for the potential: V(u) = e12 · u^-12 − e6 · u^-6 with
/// e12 = 4·ε·(σ/R_c)¹² and e6 = 4·ε·(σ/R_c)⁶.
struct PairEnergyCoeffs {
  float e12;
  float e6;
};

/// Coulomb constant k_e in internal units × Å per e² (332.0636 kcal·Å/mol
/// converted; see units.hpp).
inline constexpr double kCoulomb = 332.0636 / 2390.05736;

class ForceField {
 public:
  /// Registers an element; epsilon is given in kcal/mol (converted
  /// internally), sigma in Å, mass in amu, charge in elementary charges.
  /// Returns its id.
  ElementId add_element(std::string name, double epsilon_kcal_per_mol,
                        double sigma_angstrom, double mass_amu,
                        double charge_e = 0.0);

  /// Standard sodium parameters used by the paper's custom dataset
  /// (Åqvist-style Na: ε = 0.0469 kcal/mol, σ = 2.43 Å, m = 22.99 amu).
  static ForceField sodium();

  /// Na⁺ / Cl⁻ pair with charges, for electrostatics-enabled runs.
  static ForceField sodium_chloride();

  std::size_t num_elements() const { return elements_.size(); }
  const Element& element(ElementId id) const { return elements_.at(id); }

  /// Lorentz-Berthelot mixed parameters (internal units / Å).
  double epsilon(ElementId a, ElementId b) const;
  double sigma(ElementId a, ElementId b) const;

  /// Analytic pair potential, double precision; r2 in Å². No cutoff applied.
  double lj_energy(double r2, ElementId a, ElementId b) const;

  /// Analytic pair force on the first particle of the pair; dr = r_a - r_b
  /// in Å. F = ε/σ²·[48(σ/r)^14 − 24(σ/r)^8]·dr (Eq. 2).
  geom::Vec3d lj_force(const geom::Vec3d& dr, ElementId a, ElementId b) const;

  /// Ewald real-space electrostatic pair energy:
  /// k_e·q_a·q_b·erfc(β·r)/r (the PME short-range term, §2.1).
  double ewald_real_energy(double r2, ElementId a, ElementId b,
                           double beta) const;

  /// Ewald real-space force on the first particle:
  /// k_e·q_a·q_b·[erfc(βr) + (2βr/√π)·e^(−β²r²)]/r³ · dr.
  geom::Vec3d ewald_real_force(const geom::Vec3d& dr, ElementId a, ElementId b,
                               double beta) const;

  /// Combined pair energy/force for the enabled terms.
  double pair_energy(double r2, ElementId a, ElementId b,
                     const ForceTerms& terms) const;
  geom::Vec3d pair_force(const geom::Vec3d& dr, ElementId a, ElementId b,
                         const ForceTerms& terms) const;

  /// Coefficient tables for a given cutoff, indexed [a * num_elements + b].
  std::vector<PairForceCoeffs> force_coeff_table(double cutoff) const;
  std::vector<PairEnergyCoeffs> energy_coeff_table(double cutoff) const;

  /// Ewald charge-product coefficients: force table entries are
  /// k_e·q_a·q_b/R_c² (the T_ew(u²)·u_vec convention of
  /// interp::ewald tables); energy entries k_e·q_a·q_b/R_c.
  std::vector<float> ewald_force_coeff_table(double cutoff) const;
  std::vector<float> ewald_energy_coeff_table(double cutoff) const;

 private:
  /// Mixed per-pair factors of the double-precision kernels, filled by
  /// add_element with the expressions the kernels would otherwise evaluate
  /// per pair, so every pair energy and force keeps its bits.
  struct Mixed {
    double eps;        ///< epsilon(a, b)
    double four_eps;   ///< 4.0 * eps
    double sig2;       ///< sigma(a, b)²
    double coulomb;    ///< kCoulomb * q_a * q_b
  };
  /// Bounds-checked like element(): throws std::out_of_range.
  const Mixed& mixed(ElementId a, ElementId b) const;

  std::vector<Element> elements_;
  std::vector<Mixed> mixed_;  ///< [a * num_elements() + b]
};

}  // namespace fasda::md
