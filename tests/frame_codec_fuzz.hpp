#pragma once
// FrameCodecFuzz: one codec fuzz battery over the two protocols that
// speak util/frame.hpp — the serve wire and the job journal. Every case
// runs against each protocol through two doors: the shared codec
// (util::frame::parse with the protocol's constants) and the protocol's
// own reader with its own error policy — the wire's FrameDecoder fed in
// random chunks, and the journal's salvage scan. Types are drawn from
// every type the protocol knows.
//
// The cases are templates on the protocol traits: util_test runs them as a
// typed suite, and serve_test / serve_durability_test keep their
// ServeWireFuzz.* / JournalFuzz.* names as entry points into the same
// cases for their own protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "fasda/serve/journal.hpp"
#include "fasda/serve/wire.hpp"

namespace fasda::frame_fuzz {

using util::frame::Status;
using Bytes = std::vector<std::uint8_t>;

struct Record {
  std::uint8_t type = 0;
  std::string payload;
  bool operator==(const Record&) const = default;
};

/// What a protocol's own reader made of a byte stream.
struct Outcome {
  std::vector<Record> records;  ///< the valid prefix, in order
  std::size_t salvaged = 0;     ///< bytes those records occupy
  bool damaged = false;  ///< damage reported (not merely a short stream)
};

inline std::size_t frame_size(const Record& r) {
  return util::frame::kHeaderBytes + 1 + r.payload.size();
}

inline void finish(Outcome& out) {
  for (const Record& r : out.records) out.salvaged += frame_size(r);
}

/// The protocol's own reader. Each specialization names the protocol and
/// pins the size of its known-type set.
template <class P>
struct Reader;

template <>
struct Reader<serve::WireProtocol> {
  static constexpr const char* kName = "wire";
  static constexpr std::size_t kTypes = 11;
  static Outcome read(const Bytes& stream, std::mt19937& rng) {
    serve::FrameDecoder decoder;
    Outcome out;
    std::size_t off = 0;
    for (;;) {
      serve::WireFrame f;
      const Status st = decoder.next(f);
      if (st == Status::kFrame) {
        out.records.push_back({static_cast<std::uint8_t>(f.type), f.payload});
        continue;
      }
      if (st != Status::kNeedMore) {
        out.damaged = true;
        break;
      }
      if (off == stream.size()) break;
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 17, stream.size() - off);
      decoder.feed(stream.data() + off, chunk);
      off += chunk;
    }
    finish(out);
    if (!out.damaged) {
      EXPECT_EQ(decoder.buffered(), stream.size() - out.salvaged);
    }
    return out;
  }
};

template <>
struct Reader<serve::JournalProtocol> {
  static constexpr const char* kName = "journal";
  static constexpr std::size_t kTypes = 6;
  static Outcome read(const Bytes& stream, std::mt19937&) {
    const serve::RecoveryReport report =
        serve::scan_journal_bytes(stream.data(), stream.size());
    Outcome out;
    for (const serve::JournalEntry& e : report.entries) {
      out.records.push_back({static_cast<std::uint8_t>(e.type), e.payload});
    }
    finish(out);
    EXPECT_EQ(report.salvaged_bytes, out.salvaged);
    EXPECT_EQ(report.salvaged_bytes + report.quarantined_bytes, stream.size());
    const bool clean = report.tail == serve::JournalTail::kClean;
    EXPECT_EQ(clean, out.salvaged == stream.size());
    EXPECT_EQ(clean, report.issue.empty());
    out.damaged = report.tail == serve::JournalTail::kCorrupt;
    return out;
  }
};

template <class P>
std::vector<std::uint8_t> known_types() {
  std::vector<std::uint8_t> types;
  for (int t = 0; t < 256; ++t) {
    if (P::known(static_cast<std::uint8_t>(t))) {
      types.push_back(static_cast<std::uint8_t>(t));
    }
  }
  return types;
}

template <class P>
Bytes encode(std::uint8_t type, std::string_view payload) {
  return util::frame::encode<P>(static_cast<typename P::Type>(type), payload);
}

template <class P>
Status parse(const Bytes& bytes) {
  return util::frame::parse<P>(bytes).status;
}

template <class P>
Outcome read_stream(const Bytes& stream, std::uint32_t seed = 1) {
  std::mt19937 rng(seed);
  return Reader<P>::read(stream, rng);
}

/// Recorded frame bytes, written as hex in the tests.
inline Bytes unhex(std::string_view text) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

inline void append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline Bytes with_length(std::uint32_t length) {
  util::ByteWriter w;
  w.u32(length);
  w.u32(0);
  w.u8(1);
  return w.take();
}

/// One record of every known type, with JSON-shaped payloads.
template <class P>
std::vector<Record> corpus() {
  std::vector<Record> records;
  for (const std::uint8_t t : known_types<P>()) {
    records.push_back(
        {t, "{\"job\":" + std::to_string(t) + ",\"step\":" +
                std::to_string(t * 7) + ",\"tenant\":\"t\"}"});
  }
  records.push_back({known_types<P>().front(), "{}"});
  return records;
}

/// The corpus as one stream, plus the frame boundaries (0 first).
template <class P>
Bytes corpus_stream(const std::vector<Record>& records,
                    std::vector<std::size_t>* boundaries = nullptr) {
  Bytes stream;
  if (boundaries != nullptr) boundaries->assign(1, 0);
  for (const Record& r : records) {
    append(stream, encode<P>(r.type, r.payload));
    if (boundaries != nullptr) boundaries->push_back(stream.size());
  }
  return stream;
}

// ----------------------------------------------------------------- cases

template <class P>
void random_frames_round_trip() {
  const std::vector<std::uint8_t> types = known_types<P>();
  ASSERT_EQ(types.size(), Reader<P>::kTypes);
  std::mt19937 rng(0x5eed);
  std::vector<bool> drawn(256, false);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Record> sent(1 + rng() % 5);
    for (Record& r : sent) {
      r.type = types[rng() % types.size()];
      drawn[r.type] = true;
      r.payload.resize(rng() % 301);
      for (char& c : r.payload) c = static_cast<char>(rng());
    }
    const Bytes stream = corpus_stream<P>(sent);
    const Outcome got = Reader<P>::read(stream, rng);
    ASSERT_EQ(got.records, sent) << "iter=" << iter;
    EXPECT_EQ(got.salvaged, stream.size());
    EXPECT_FALSE(got.damaged);
  }
  for (const std::uint8_t t : types) EXPECT_TRUE(drawn[t]) << int(t);
}

// Cutting the stream at every byte offset yields exactly the frames fully
// present: never damage, never a lost or invented frame.
template <class P>
void every_truncation() {
  const std::vector<Record> records = corpus<P>();
  std::vector<std::size_t> boundaries;
  const Bytes stream = corpus_stream<P>(records, &boundaries);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    const Bytes prefix(stream.begin(),
                       stream.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t full = 0;
    while (full + 1 < boundaries.size() && boundaries[full + 1] <= cut) {
      ++full;
    }
    const Outcome got = read_stream<P>(prefix, static_cast<std::uint32_t>(cut));
    ASSERT_EQ(got.records.size(), full) << "cut=" << cut;
    EXPECT_TRUE(std::equal(got.records.begin(), got.records.end(),
                           records.begin()));
    EXPECT_EQ(got.salvaged, boundaries[full]) << "cut=" << cut;
    EXPECT_FALSE(got.damaged) << "cut=" << cut;
    EXPECT_EQ(parse<P>(prefix),
              cut < boundaries[1] ? Status::kNeedMore : Status::kFrame);
  }
}

// Flipping every single bit: the frames before the damaged one always
// survive byte-identically, the damaged frame is never accepted, and a
// stream that stops at it reports damage or a short tail, never "clean".
template <class P>
void every_single_bit_flip() {
  const std::vector<Record> records = corpus<P>();
  std::vector<std::size_t> boundaries;
  const Bytes stream = corpus_stream<P>(records, &boundaries);
  std::size_t record = 0;
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    while (boundaries[record + 1] <= byte) ++record;
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = stream;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto at = [&mutated](std::size_t off) {
        return mutated.begin() + static_cast<std::ptrdiff_t>(off);
      };
      const Bytes frame(at(boundaries[record]), at(boundaries[record + 1]));
      EXPECT_NE(parse<P>(frame), Status::kFrame)
          << "byte=" << byte << " bit=" << bit;
      const Outcome got =
          read_stream<P>(mutated, static_cast<std::uint32_t>(byte));
      ASSERT_GE(got.records.size(), record) << "byte=" << byte;
      EXPECT_TRUE(std::equal(records.begin(),
                             records.begin() +
                                 static_cast<std::ptrdiff_t>(record),
                             got.records.begin()))
          << "byte=" << byte << " bit=" << bit;
      if (got.records.size() == record) {
        EXPECT_TRUE(got.damaged || got.salvaged < mutated.size())
            << "undetected damage at byte=" << byte << " bit=" << bit;
      }
    }
  }
}

template <class P>
void zero_and_oversized_lengths() {
  for (const std::uint32_t length : {0u, P::kMaxLength + 1, 0xffffffffu}) {
    const Bytes bytes = with_length(length);
    EXPECT_EQ(parse<P>(bytes), Status::kBadLength) << length;
    const Outcome got = read_stream<P>(bytes);
    EXPECT_TRUE(got.damaged) << length;
    EXPECT_TRUE(got.records.empty()) << length;
  }
}

// [len][len][crc][type][payload]: the stream desynchronizes into a typed
// error, never a frame.
template <class P>
void duplicated_length_prefix() {
  const Bytes clean = encode<P>(known_types<P>().front(), "{}");
  Bytes bytes(clean.begin(), clean.begin() + 4);
  append(bytes, clean);
  const Status st = parse<P>(bytes);
  EXPECT_TRUE(st == Status::kBadCrc || st == Status::kBadLength ||
              st == Status::kBadType)
      << util::frame::status_name(st);
  EXPECT_TRUE(read_stream<P>(bytes).damaged);
}

template <class P>
void unknown_type_with_valid_crc() {
  for (int t = 0; t < 256; ++t) {
    const auto type = static_cast<std::uint8_t>(t);
    if (P::known(type)) continue;
    const Bytes bytes = encode<P>(type, "{}");
    EXPECT_EQ(parse<P>(bytes), Status::kBadType) << t;
    const Outcome got = read_stream<P>(bytes);
    EXPECT_TRUE(got.damaged) << t;
    EXPECT_TRUE(got.records.empty()) << t;
  }
}

// One byte over the cap fails loudly on the sending side with the
// protocol's own error class; the largest legal payload round-trips.
template <class P>
void encode_enforces_the_cap() {
  const std::string over(P::kMaxLength, '\0');
  const auto type = static_cast<typename P::Type>(known_types<P>().front());
  EXPECT_THROW(util::frame::encode<P>(type, over), typename P::Error);
  const std::string max_ok(P::kMaxLength - 1, 'a');
  const util::frame::Parsed got =
      util::frame::parse<P>(util::frame::encode<P>(type, max_ok));
  ASSERT_EQ(got.status, Status::kFrame);
  EXPECT_EQ(got.payload.size(), max_ok.size());
}

// After the first error nothing more is accepted: the decoder stays
// poisoned and the protocol's reader salvages nothing past the damage.
template <class P>
void errors_poison_the_stream() {
  const std::uint8_t type = known_types<P>().front();
  Bytes bad = encode<P>(type, "{}");
  bad[util::frame::kHeaderBytes] ^= 0xff;  // type byte -> CRC mismatch
  const Bytes good = encode<P>(type, "{}");
  util::frame::Decoder<P> decoder;
  util::frame::Frame<P> f;
  decoder.feed(bad.data(), bad.size());
  ASSERT_EQ(decoder.next(f), Status::kBadCrc);
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(f), Status::kBadCrc);

  Bytes stream = bad;
  append(stream, good);
  const Outcome got = read_stream<P>(stream);
  EXPECT_TRUE(got.damaged);
  EXPECT_TRUE(got.records.empty());
  EXPECT_EQ(got.salvaged, 0u);
}

// A duplicated frame is valid, not damage: the codec keeps both copies
// (the journal's recovery fold dedups them).
template <class P>
void duplicated_frames_survive() {
  const std::vector<Record> records = corpus<P>();
  const std::vector<Record> doubled{records[0], records[0], records[1]};
  const Outcome got = read_stream<P>(corpus_stream<P>(doubled));
  EXPECT_EQ(got.records, doubled);
  EXPECT_FALSE(got.damaged);
}

// Random garbage: whatever is salvaged re-encodes to exactly the salvaged
// prefix, byte for byte.
template <class P>
void random_garbage_salvages_only_valid_frames() {
  std::mt19937 rng(0xFA5DA);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes bytes(rng() % 512);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    if (trial % 2 == 1) {  // a valid prefix, then garbage
      Bytes stream = encode<P>(known_types<P>().back(), "{\"job\":1}");
      append(stream, bytes);
      bytes = std::move(stream);
    }
    const Outcome got = Reader<P>::read(bytes, rng);
    const Bytes replayed = corpus_stream<P>(got.records);
    ASSERT_LE(replayed.size(), bytes.size());
    EXPECT_TRUE(std::equal(replayed.begin(), replayed.end(), bytes.begin()))
        << "trial=" << trial;
    EXPECT_EQ(got.salvaged, replayed.size());
    if (trial % 2 == 1) {
      EXPECT_FALSE(got.records.empty());
    }
  }
}

}  // namespace fasda::frame_fuzz
