#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "fasda/net/fault.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/rng.hpp"
#include "fasda/util/thread_pool.hpp"
#include "frame_codec_fuzz.hpp"

namespace fasda::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a() != b();
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 3.5);
  }
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Xoshiro256 rng(11);
  const int n = 200000;
  double mean = 0.0, var = 0.0;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  for (double x : xs) mean += x;
  mean /= n;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(ThreadPool, CoversFullRangeOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i]++;
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, WorkerIndicesAreUniqueAndBounded) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> used(pool.size());
  pool.parallel_for(1000, [&](std::size_t worker, std::size_t, std::size_t) {
    ASSERT_LT(worker, pool.size());
    used[worker]++;
  });
  for (auto& u : used) EXPECT_LE(u.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(1, [&](std::size_t, std::size_t b, std::size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(100, [&](std::size_t, std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum += local;
    });
  }
  EXPECT_EQ(sum.load(), 200L * (99 * 100 / 2));
}

TEST(ThreadPool, ParallelPhasesBarrierOrdersPhases) {
  // Phase 2 of every chunk must observe phase-1 writes from EVERY chunk,
  // including chunks run by other workers — that's the barrier.
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 512;
    std::vector<int> stage(n, 0);
    std::vector<int> sums(n, 0);
    for (int round = 0; round < 20; ++round) {
      pool.parallel_phases(
          n,
          [&](std::size_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) stage[i] = static_cast<int>(i) + round;
          },
          [&](std::size_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              // Read across the whole array, not just the local chunk.
              sums[i] = stage[i] + stage[n - 1 - i] + stage[0];
            }
          });
      for (std::size_t i = 0; i < n; ++i) {
        // (i + r) + (n-1-i + r) + (0 + r) = n - 1 + 3r for every i.
        ASSERT_EQ(sums[i], static_cast<int>(n - 1) + 3 * round)
            << "threads=" << threads << " round=" << round << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelPhasesHandlesEmptyTinyAndFewerItemsThanWorkers) {
  ThreadPool pool(8);
  int p1 = 0, p2 = 0;
  pool.parallel_phases(
      0, [&](std::size_t, std::size_t, std::size_t) { ++p1; },
      [&](std::size_t, std::size_t, std::size_t) { ++p2; });
  EXPECT_EQ(p1, 0);
  EXPECT_EQ(p2, 0);

  std::atomic<int> t1{0}, t2{0};
  pool.parallel_phases(
      1,
      [&](std::size_t, std::size_t b, std::size_t e) { t1 += static_cast<int>(e - b); },
      [&](std::size_t, std::size_t b, std::size_t e) { t2 += static_cast<int>(e - b); });
  EXPECT_EQ(t1.load(), 1);
  EXPECT_EQ(t2.load(), 1);

  // 3 items over up to 8 participants: several workers get empty chunks but
  // must still join the barrier (this deadlocks if they don't).
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> commits{0};
  pool.parallel_phases(
      hits.size(),
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i]++;
      },
      [&](std::size_t, std::size_t b, std::size_t e) {
        commits += static_cast<int>(e - b);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(commits.load(), 3);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--alpha", "3",    "--beta=x",
                        "pos1", "--gamma", "pos2"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_or("alpha", 0L), 3);
  EXPECT_EQ(cli.get_or("beta", "y"), "x");
  EXPECT_TRUE(cli.has("gamma"));
  EXPECT_FALSE(cli.has("delta"));
  EXPECT_EQ(cli.get_or("delta", 9L), 9);
  // "--gamma pos2": pos2 is consumed as gamma's value by the grammar.
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, ParsesDoubles) {
  const char* argv[] = {"prog", "--x", "2.5"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_or("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(cli.get_or("y", 1.25), 1.25);
}

/// The std::invalid_argument message of get_or(name, fallback), or "" if
/// it parsed.
template <class T>
std::string number_error(std::vector<const char*> args, const char* name,
                         T fallback) {
  args.insert(args.begin(), "prog");
  const Cli cli(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  try {
    cli.get_or(name, fallback);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, RejectsMalformedNumbersNamingTheFlag) {
  // No digits, trailing characters, an empty value and overflow all throw;
  // before, "--steps abc" read 0 and "--dt 2fs" read 2.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--steps", "abc"}, {"--steps", "10x"}, {"--steps=-"},
           {"--steps"}, {"--steps", "99999999999999999999999"},
           {"--steps", "1.5"}}) {
    const std::string err = number_error(args, "steps", 3L);
    EXPECT_NE(err.find("--steps"), std::string::npos) << args[0] << ": " << err;
  }
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--dt", "2fs"}, {"--dt", "fs"}, {"--dt="}, {"--dt", "1e999"}}) {
    const std::string err = number_error(args, "dt", 2.0);
    EXPECT_NE(err.find("--dt"), std::string::npos) << args[0] << ": " << err;
  }
  // Well-formed values still parse, including signs and exponents.
  EXPECT_EQ(number_error({"--steps=-4"}, "steps", 3L), "");
  EXPECT_EQ(number_error({"--dt", "2.5e-1"}, "dt", 2.0), "");
  const char* argv[] = {"prog", "--steps=-4", "--dt", "2.5e-1"};
  const Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_or("steps", 3L), -4);
  EXPECT_DOUBLE_EQ(cli.get_or("dt", 2.0), 0.25);
}

TEST(Cli, FirstUnknownNamesTheFirstUnreadArgument) {
  const char* argv[] = {"prog", "--steps", "10", "--naive-tick", "--step", "3"};
  const Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.first_unknown({"steps", "naive-tick", "step"}), std::nullopt);
  EXPECT_EQ(cli.first_unknown({"steps", "step"}), "--naive-tick");
  EXPECT_EQ(cli.first_unknown({"steps", "naive-tick"}), "--step");

  const char* stray[] = {"prog", "--steps", "10", "extra"};
  const Cli with_positional(4, const_cast<char**>(stray));
  EXPECT_EQ(with_positional.first_unknown({"steps"}), "extra");
}

TEST(ParseDims, ThreeDigitShorthand) {
  EXPECT_EQ(parse_dims("444"), (geom::IVec3{4, 4, 4}));
  EXPECT_EQ(parse_dims("123"), (geom::IVec3{1, 2, 3}));
  EXPECT_EQ(parse_dims("999"), (geom::IVec3{9, 9, 9}));
}

TEST(ParseDims, ExplicitTriple) {
  EXPECT_EQ(parse_dims("12x4x4"), (geom::IVec3{12, 4, 4}));
  EXPECT_EQ(parse_dims("2x10x3"), (geom::IVec3{2, 10, 3}));
  EXPECT_EQ(parse_dims("1x1x1"), (geom::IVec3{1, 1, 1}));
  EXPECT_EQ(parse_dims("128x64x32"), (geom::IVec3{128, 64, 32}));
}

TEST(ParseDims, RejectsMalformedInput) {
  EXPECT_THROW(parse_dims(""), std::invalid_argument);
  EXPECT_THROW(parse_dims("44"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4444"), std::invalid_argument);
  EXPECT_THROW(parse_dims("abc"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x4"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x4x4x4"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x4x"), std::invalid_argument);
  EXPECT_THROW(parse_dims("x4x4"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x-1x4"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x4.5x4"), std::invalid_argument);
}

TEST(ParseDims, RejectsZeroAxes) {
  EXPECT_THROW(parse_dims("044"), std::invalid_argument);
  EXPECT_THROW(parse_dims("4x0x4"), std::invalid_argument);
}

// ------------------------------------------------- --faults diagnostics

/// Captures the one-line diagnostic a bad --faults spec produces.
std::string parse_fault_error(std::string_view spec) {
  try {
    net::FaultPlan::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "spec '" << spec << "' was accepted";
  return {};
}

TEST(FaultSpecDiagnostics, NamesTheBadTokenAndTheKey) {
  EXPECT_NE(parse_fault_error("drop=0.1x").find("'0.1x'"), std::string::npos);
  EXPECT_NE(parse_fault_error("drop=0.1x").find("'drop'"), std::string::npos);
  EXPECT_NE(parse_fault_error("seed=12 34").find("'12 34'"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("frobnicate=1").find("unknown key 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("drop").find("expected key=value"),
            std::string::npos);
  // The whole spec rides along so a user sees the context, not just the
  // token.
  EXPECT_NE(parse_fault_error("drop=0.1,dup=zz").find("drop=0.1,dup=zz"),
            std::string::npos);
}

TEST(FaultSpecDiagnostics, RatesMustStayInUnitInterval) {
  EXPECT_NE(parse_fault_error("drop=1.5").find("must be in [0, 1]"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("corrupt=-0.25").find("must be in [0, 1]"),
            std::string::npos);
}

TEST(FaultSpecDiagnostics, NodeFaultArityAndValues) {
  EXPECT_NE(parse_fault_error("crash=3").find("crash expects NODE-CYCLE"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("stall=3-100").find("stall expects"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("stall=3-100-0").find("duration must be > 0"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("hang=-1-100").find("'-1-100'"),
            std::string::npos);
  EXPECT_NE(parse_fault_error("die=x-100").find("'x'"), std::string::npos);
}

TEST(FaultSpecDiagnostics, NodeFaultsRoundTrip) {
  const auto plan =
      net::FaultPlan::parse("crash=1-2500,die=0-100,hang=2-50,stall=3-10-20");
  ASSERT_EQ(plan.node_faults.size(), 4u);
  EXPECT_EQ(plan.node_faults[0].kind, net::NodeFaultKind::kCrash);
  EXPECT_EQ(plan.node_faults[0].node, 1);
  EXPECT_EQ(plan.node_faults[0].at, 2500u);
  EXPECT_FALSE(plan.node_faults[0].permanent);
  EXPECT_TRUE(plan.node_faults[1].permanent);
  EXPECT_EQ(plan.node_faults[2].kind, net::NodeFaultKind::kHang);
  EXPECT_EQ(plan.node_faults[3].kind, net::NodeFaultKind::kStall);
  EXPECT_EQ(plan.node_faults[3].duration, 20u);
  EXPECT_TRUE(plan.has_node_faults());
  ASSERT_EQ(plan.faults_for_node(3).size(), 1u);
  EXPECT_TRUE(plan.faults_for_node(7).empty());
}

TEST(FaultSpecDiagnostics, ValidateRejectsOutOfClusterIds) {
  const auto plan = net::FaultPlan::parse("crash=9-100");
  EXPECT_NO_THROW(plan.validate(16));
  try {
    plan.validate(8);
    FAIL() << "node 9 accepted in an 8-node cluster";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node id 9"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8-node"), std::string::npos);
  }
  EXPECT_THROW(net::FaultPlan::parse("dead=0-9").validate(4),
               std::invalid_argument);
  EXPECT_THROW(net::FaultPlan::parse("dropk=5-0-3").validate(4),
               std::invalid_argument);
}

}  // namespace
}  // namespace fasda::util

// ------------------------------------------- control-plane frames (frame.hpp)

namespace fasda::frame_fuzz {
namespace {

template <class P>
class FrameCodecFuzz : public ::testing::Test {};

struct ProtocolName {
  template <class P>
  static std::string GetName(int) {
    return Reader<P>::kName;
  }
};

using Protocols = ::testing::Types<serve::WireProtocol, serve::JournalProtocol>;
TYPED_TEST_SUITE(FrameCodecFuzz, Protocols, ProtocolName);

TYPED_TEST(FrameCodecFuzz, RandomFramesRoundTrip) {
  random_frames_round_trip<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, EveryTruncation) { every_truncation<TypeParam>(); }
TYPED_TEST(FrameCodecFuzz, EverySingleBitFlip) {
  every_single_bit_flip<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, ZeroAndOversizedLengths) {
  zero_and_oversized_lengths<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, DuplicatedLengthPrefix) {
  duplicated_length_prefix<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, UnknownTypeWithValidCrc) {
  unknown_type_with_valid_crc<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, EncodeEnforcesTheCap) {
  encode_enforces_the_cap<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, ErrorsPoisonTheStream) {
  errors_poison_the_stream<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, DuplicatedFramesSurvive) {
  duplicated_frames_survive<TypeParam>();
}
TYPED_TEST(FrameCodecFuzz, RandomGarbageSalvagesOnlyValidFrames) {
  random_garbage_salvages_only_valid_frames<TypeParam>();
}

std::string hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// Bytes recorded from the hand-written wire and journal codecs this module
// replaced.
// A mismatch means the frame format changed under every peer and every
// state directory on disk.
TEST(FrameGolden, EncodeReproducesRecordedBytes) {
  const std::string payload = "{\"job\":7}";
  EXPECT_EQ(hex(serve::encode_frame(serve::MsgType::kResult, payload)),
            "0a000000b9cc40f7437b226a6f62223a377d");
  EXPECT_EQ(hex(serve::encode_journal_record(serve::JournalRecord::kCompleted,
                                             payload)),
            "0a00000060d0268b047b226a6f62223a377d");
}

// A journal holding one record of every type, as written before the
// shared codec: today's recovery reads it clean with every payload intact.
TEST(FrameGolden, RecordedJournalRecoversClean) {
  const Bytes journal = unhex(
      "91010000ad916ec8017b226a6f62223a312c2272657175657374223a7b2274656e616e74"
      "223a2264656661756c74222c227072696f72697479223a302c227265706c69636173223a"
      "312c227374657073223a342c2273616d706c65223a322c227370616365223a2233333322"
      "2c227065725f63656c6c223a342c2273656564223a32343330312c2274656d7065726174"
      "757265223a3330302c22666f7263656669656c64223a226e61222c22656e67696e65223a"
      "2266756e6374696f6e616c222c226474223a322c226577616c64223a66616c73652c2274"
      "687265616473223a312c22706573223a312c2273706573223a312c22776f726b65727322"
      "3a312c2270726f635f776f726b657273223a302c226e616976655f7469636b223a66616c"
      "73652c2262617463685f776f726b657273223a312c22737570657276697365223a66616c"
      "73652c22636865636b706f696e745f6576657279223a302c226d61785f72657374617274"
      "73223a332c22616c6c6f775f6465677261646564223a66616c73652c2272657475726e5f"
      "7374617465223a747275657d7d0a000000a10762d0027b226a6f62223a317d1f00000090"
      "fcf2e8037b226a6f62223a312c227265706c696361223a302c2273746570223a327d6100"
      "0000c1bfb152047b226a6f62223a312c2274656e616e74223a2274222c226964656d706f"
      "74656e6379223a22222c22726573756c74223a7b226a6f62223a312c226f7574636f6d65"
      "223a226f6b222c2265786974223a302c227265706c69636173223a5b5d7d7d0a0000001b"
      "4f9319057b226a6f62223a327d030000001c08b319067b7d");
  ASSERT_EQ(journal.size(), 600u);
  const serve::RecoveryReport report =
      serve::scan_journal_bytes(journal.data(), journal.size());
  EXPECT_EQ(report.tail, serve::JournalTail::kClean);
  EXPECT_TRUE(report.clean_shutdown);
  ASSERT_EQ(report.entries.size(), 6u);
  Bytes replayed;
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const serve::JournalEntry& e = report.entries[i];
    EXPECT_EQ(static_cast<std::size_t>(e.type), i + 1);  // kAdmitted first
    append(replayed, serve::encode_journal_record(e.type, e.payload));
  }
  EXPECT_EQ(replayed, journal);
  EXPECT_EQ(report.entries[1].payload, "{\"job\":1}");
  EXPECT_EQ(report.entries[5].payload, "{}");
}

}  // namespace
}  // namespace fasda::frame_fuzz
