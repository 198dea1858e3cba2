// Reproduces Table 1: per-FPGA LUT / FF / BRAM / URAM / DSP utilization for
// all seven design variants, from the analytic resource model (calibrated
// on the single-FPGA row; see DESIGN.md). Paper values are printed next to
// the model's for direct comparison.

#include "bench_common.hpp"
#include "fasda/model/resource_model.hpp"

namespace {

int run_table1_resources(const fasda::util::Cli&) {
  using namespace fasda;
  bench::print_header("Table 1 -- Hardware utilization of all design variants");

  struct PaperRow {
    int lut, ff, bram, uram, dsp;
  };
  const PaperRow paper[] = {
      {40, 22, 29, 20, 20}, {44, 24, 38, 31, 20}, {46, 24, 33, 42, 20},
      {46, 24, 33, 42, 20}, {23, 16, 31, 13, 6},  {35, 20, 51, 18, 14},
      {52, 26, 76, 28, 27},
  };

  const model::ResourceModel resources;
  std::printf("%-9s %6s | %-11s %-11s %-11s %-11s %-11s\n", "design", "#FPGA",
              "LUT (ref)", "FF (ref)", "BRAM (ref)", "URAM (ref)", "DSP (ref)");

  const auto variants = bench::table1_variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto u = resources.utilization(variants[i].config);
    std::printf(
        "%-9s %6d | %3.0f%% (%2d%%)  %3.0f%% (%2d%%)  %3.0f%% (%2d%%)  "
        "%3.0f%% (%2d%%)  %3.0f%% (%2d%%)\n",
        variants[i].name.c_str(), variants[i].config.node_dims.product(),
        100 * u.lut, paper[i].lut, 100 * u.ff, paper[i].ff, 100 * u.bram,
        paper[i].bram, 100 * u.uram, paper[i].uram, 100 * u.dsp, paper[i].dsp);
  }

  std::printf(
      "\nResiduals are largest in the memory columns of the 4x4x4 rows: the\n"
      "paper notes those designs re-balance between LUT, BRAM and URAM,\n"
      "which a single linear model intentionally does not chase.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "table1_resources", {}, run_table1_resources);
}
