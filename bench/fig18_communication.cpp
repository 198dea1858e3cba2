// Reproduces Figure 18: (A) average per-FPGA bandwidth demand for
// positions and forces in the multi-FPGA designs, and (B/C) the breakdown
// of position/force traffic by destination node, which shows that an FPGA
// communicates intensely only with its logical neighbours (forces more so,
// because zero forces to diagonal nodes are discarded, §5.4).
//
// Every number printed here comes out of the obs metrics registry
// (DESIGN.md §12): the fabrics count per-destination egress and the
// reliability record into the hub, and the bench reads the snapshot — no
// bench-side aggregation over TrafficMatrix remains.
//
// Flags:
//   --iters N      timesteps per design (default 2)
//   --cooldown N   ablation: egress cooldown counter (default 2)
//   --faults SPEC  arm the lossy-fabric model + ack/retransmit recovery and
//                  append a per-link reliability table (DESIGN.md §10).
//                  SPEC: drop=0.05,dup=0.02,reorder=0.02,corrupt=0.01,seed=7

#include <optional>
#include <string>

#include "bench_common.hpp"
#include "fasda/obs/obs.hpp"

namespace {

using namespace fasda;

void breakdown(const char* label, const obs::MetricsSnapshot& snap,
               const char* channel, idmap::NodeId src, int num_nodes) {
  const std::vector<double> pct =
      obs::egress_percentages(snap, channel, src, num_nodes);
  std::printf("  %s from node %d:", label, src);
  for (idmap::NodeId dst = 0; dst < num_nodes; ++dst) {
    if (dst == src) {
      std::printf("    -- ");
      continue;
    }
    std::printf(" %5.1f%%", pct[static_cast<std::size_t>(dst)]);
  }
  std::printf("\n");
}

std::uint64_t link_counter(const obs::MetricsSnapshot& snap, int src, int dst,
                           const char* field) {
  return snap.counter("net.rel.to." + std::to_string(dst) + "." + field, src);
}

int run_fig18_communication(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int iters = static_cast<int>(cli.get_or("iters", 2L));
  const int cooldown = static_cast<int>(cli.get_or("cooldown", 2L));
  std::optional<net::FaultPlan> faults;
  if (auto spec = cli.get("faults")) faults = net::FaultPlan::parse(*spec);

  bench::print_header("Figure 18 -- Communication bandwidth demand and breakdown");
  if (cooldown != 2) std::printf("[ablation: cooldown = %d cycles]\n", cooldown);
  if (faults) {
    std::printf("[lossy fabric: drop=%.3f dup=%.3f reorder=%.3f corrupt=%.3f "
                "seed=%llu]\n",
                faults->all.drop, faults->all.dup, faults->all.reorder,
                faults->all.corrupt,
                static_cast<unsigned long long>(faults->seed));
  }

  struct Design {
    const char* name;
    core::ClusterConfig config;
    geom::IVec3 cells;
  };
  const Design designs[] = {
      {"6x6x6 (1 PE)", bench::weak_config({2, 2, 2}), {6, 6, 6}},
      {"4x4x4-B (1 SPE, 3 PE)", bench::strong_config(3, 1), {4, 4, 4}},
      {"4x4x4-C (2 SPE, 3 PE)", bench::strong_config(3, 2), {4, 4, 4}},
  };

  std::printf("\n(A) Average per-FPGA bandwidth demand (Gbps @ 200 MHz)\n");
  std::printf("%-24s %10s %10s   (paper: < 25 Gbps each, C highest)\n",
              "design", "positions", "forces");

  for (const Design& d : designs) {
    auto config = d.config;
    config.channel.cooldown = cooldown;
    config.faults = faults;
    obs::Hub hub;  // fresh per design: each snapshot covers one cluster
    config.obs = &hub;
    const auto state = bench::standard_dataset(d.cells);
    core::Simulation sim(state, md::ForceField::sodium(), config);
    sim.run(iters);
    const obs::MetricsSnapshot snap = hub.metrics().snapshot();
    std::printf("%-24s %10.2f %10.2f\n", d.name,
                snap.gauge_or("net.pos.gbps_per_node"),
                snap.gauge_or("net.frc.gbps_per_node"));

    if (&d == &designs[2]) {
      const int n = sim.num_nodes();
      std::printf(
          "\n(B/C) Traffic breakdown by destination node, design C, 2x2x2 "
          "torus (dst 0..7)\n");
      breakdown("positions", snap, "net.pos", 0, n);
      breakdown("forces   ", snap, "net.frc", 0, n);
      std::printf(
          "  (expect: faces > edges > corner; forces steeper because zero\n"
          "   forces to distant nodes are discarded rather than returned)\n");

      if (faults) {
        std::printf(
            "\n(D) Per-link reliability, design C (channels merged; only "
            "links with faults shown)\n");
        std::printf("  %-8s %6s %5s %5s %5s %7s %6s %6s %8s\n", "link",
                    "drops", "dups", "reord", "crpt", "retrans", "crcfl",
                    "dupdc", "recovery");
        for (int src = 0; src < n; ++src) {
          for (int dst = 0; dst < n; ++dst) {
            const std::uint64_t drops = link_counter(snap, src, dst, "drops");
            const std::uint64_t dups = link_counter(snap, src, dst, "dups");
            const std::uint64_t reorders =
                link_counter(snap, src, dst, "reorders");
            const std::uint64_t corrupts =
                link_counter(snap, src, dst, "corrupts");
            const std::uint64_t retransmits =
                link_counter(snap, src, dst, "retransmits");
            if (!(drops || dups || reorders || corrupts) && !retransmits) {
              continue;
            }
            std::printf("  %3d->%-3d %6llu %5llu %5llu %5llu %7llu %6llu "
                        "%6llu %8llu\n",
                        src, dst, static_cast<unsigned long long>(drops),
                        static_cast<unsigned long long>(dups),
                        static_cast<unsigned long long>(reorders),
                        static_cast<unsigned long long>(corrupts),
                        static_cast<unsigned long long>(retransmits),
                        static_cast<unsigned long long>(
                            link_counter(snap, src, dst, "crc_failures")),
                        static_cast<unsigned long long>(
                            link_counter(snap, src, dst, "dups_discarded")),
                        static_cast<unsigned long long>(
                            link_counter(snap, src, dst, "recovery_cycles")));
          }
        }
        std::printf("  total: %llu retransmits, %llu timeouts, %llu acks, "
                    "%llu nacks, max retry depth %d\n",
                    static_cast<unsigned long long>(
                        snap.counter_total("net.rel.retransmits")),
                    static_cast<unsigned long long>(
                        snap.counter_total("net.rel.timeouts")),
                    static_cast<unsigned long long>(
                        snap.counter_total("net.rel.acks")),
                    static_cast<unsigned long long>(
                        snap.counter_total("net.rel.nacks")),
                    static_cast<int>(snap.gauge_or("net.rel.max_retry_depth")));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "fig18_communication",
      {"cooldown", "faults", "iters"},
      run_fig18_communication);
}
