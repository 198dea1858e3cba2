#pragma once
// The one CRC-framed record format of the host-side control plane. Two
// protocols speak it, byte for byte the same:
//
//   [u32 length][u32 crc][u8 type][payload ...]
//
// `length` counts the type byte plus the payload, little-endian; `crc` is
// CRC-32 (util/crc32.hpp) over the same bytes. A frame is never trusted:
// parse() checks, in this order, the length against the protocol's cap,
// that the whole frame arrived, the CRC, and the type byte against the
// protocol's known-type set — and never reads past the span it was given.
//
// Each protocol is a traits struct of constants: its type enum, its error
// class, its cap (kMaxLength, on type byte + payload) and its known-type
// set. What it does with a damaged frame is its own error policy:
//
//   protocol         traits                    cap     error policy
//   serve wire       serve::WireProtocol       16 MiB  the decoder poisons
//                    (MsgType kSubmit..kStats,         the stream; the server
//                    kAccepted..kRecovering)           answers a typed kError
//                                                      (bad-length, bad-crc,
//                                                      bad-type) and closes
//   job journal      serve::JournalProtocol    16 MiB  scan_journal_bytes()
//                    (JournalRecord                    salvages the valid
//                    kAdmitted..kCleanShutdown)        prefix, classifies the
//                                                      tail torn or corrupt;
//                                                      the tail is kept in a
//                                                      .quarantined sidecar
//
// encode() enforces the cap on the sending side too, throwing the
// protocol's error class: an oversized payload fails loudly where it is
// made instead of poisoning the peer with bad-length (or, past 4 GiB,
// silently wrapping the u32 length prefix). Socket is the fd-owning
// stream end of the serve wire.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/util/bytes.hpp"
#include "fasda/util/crc32.hpp"

namespace fasda::util::frame {

inline constexpr std::size_t kHeaderBytes = 8;  ///< length + crc

enum class Status : std::uint8_t {
  kFrame,     ///< a complete, valid frame
  kNeedMore,  ///< the bytes end mid-frame
  kBadLength, ///< zero or over-cap length prefix
  kBadCrc,    ///< frame CRC mismatch
  kBadType,   ///< CRC-valid frame with an unknown type byte
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kFrame: return "frame";
    case Status::kNeedMore: return "need-more";
    case Status::kBadLength: return "bad-length";
    case Status::kBadCrc: return "bad-crc";
    case Status::kBadType: return "bad-type";
  }
  return "unknown";
}

/// One decoded frame of protocol P.
template <class P>
struct Frame {
  typename P::Type type{};
  std::string payload;
};

/// What parse() found at the front of a byte span.
struct Parsed {
  Status status = Status::kNeedMore;
  std::uint32_t length = 0;  ///< the length prefix, once 8 bytes are in
  std::uint8_t type = 0;     ///< the type byte (kFrame, kBadType)
  std::span<const std::uint8_t> payload;  ///< kFrame: view into the input
  std::size_t size() const { return kHeaderBytes + length; }
};

template <class P>
std::vector<std::uint8_t> encode(typename P::Type type,
                                 std::string_view payload) {
  if (payload.size() > P::kMaxLength - 1) {
    throw typename P::Error("payload of " + std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(P::kMaxLength) +
                            "-byte frame cap");
  }
  const auto type_byte = static_cast<std::uint8_t>(type);
  Crc32 crc;
  crc.add_bytes(&type_byte, 1);
  crc.add_bytes(payload.data(), payload.size());
  ByteWriter w;
  w.reserve(kHeaderBytes + 1 + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()) + 1);
  w.u32(crc.value());
  w.u8(type_byte);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

/// Parses the frame at the front of `bytes`. Pure: reads nothing past the
/// span and keeps no state between calls.
template <class P>
Parsed parse(std::span<const std::uint8_t> bytes) {
  Parsed out;
  if (bytes.size() < kHeaderBytes) return out;
  ByteReader header(bytes.data(), kHeaderBytes);
  out.length = header.u32();
  const std::uint32_t want_crc = header.u32();
  if (out.length == 0 || out.length > P::kMaxLength) {
    out.status = Status::kBadLength;
    return out;
  }
  if (bytes.size() < out.size()) return out;
  const auto body = bytes.subspan(kHeaderBytes, out.length);
  Crc32 crc;
  crc.add_bytes(body.data(), body.size());
  if (crc.value() != want_crc) {
    out.status = Status::kBadCrc;
    return out;
  }
  out.type = body[0];
  out.status = P::known(out.type) ? Status::kFrame : Status::kBadType;
  out.payload = body.subspan(1);
  return out;
}

/// Incremental frame extractor. feed() appends arriving bytes; next()
/// produces at most one frame per call. An error status poisons the
/// decoder — after a bad length or CRC the frame boundary is unknowable,
/// so resynchronization is never attempted.
template <class P>
class Decoder {
 public:
  void feed(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  Status next(Frame<P>& out) {
    if (poisoned_ != Status::kFrame) return poisoned_;
    const Parsed got = parse<P>(std::span(buf_).subspan(pos_));
    if (got.status == Status::kFrame) {
      out.type = static_cast<typename P::Type>(got.type);
      out.payload.assign(
          reinterpret_cast<const char*>(got.payload.data()),
          got.payload.size());
      pos_ += got.size();
    } else if (got.status != Status::kNeedMore) {
      return poisoned_ = got.status;
    }
    if (pos_ > 0 && (pos_ == buf_.size() || pos_ > 4096)) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return got.status;
  }

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  Status poisoned_ = Status::kFrame;
};

/// One end of a framed byte stream. Owns the fd; move-only. send() writes
/// whole frames; recv() blocks until one frame (or a protocol error) is
/// available. Socket failures — peer closed, syscall error, a send or recv
/// timeout — throw P::Error; protocol errors come back as a Status.
template <class P>
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& o) noexcept
      : fd_(std::exchange(o.fd_, -1)), decoder_(std::move(o.decoder_)) {}
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = std::exchange(o.fd_, -1);
      decoder_ = std::move(o.decoder_);
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Unblocks a recv() stuck in another thread; the fd stays owned.
  void shutdown_both() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void set_recv_timeout(int seconds) { set_timeout(SO_RCVTIMEO, seconds); }

  /// Bounds every blocking send: a peer that stops reading makes send()
  /// throw after `seconds` instead of holding the sending thread forever
  /// once its socket buffer fills.
  void set_send_timeout(int seconds) { set_timeout(SO_SNDTIMEO, seconds); }

  void send(typename P::Type type, std::string_view payload) {
    const std::vector<std::uint8_t> buf = encode<P>(type, payload);
    send_raw(buf.data(), buf.size());
  }

  /// Raw bytes, bypassing the framer — fault batteries use this to deliver
  /// deliberately damaged frames.
  void send_raw(const void* data, std::size_t size) {
    if (fd_ < 0) throw typename P::Error("send on a closed socket");
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0) {
      // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, never SIGPIPE.
      const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        // EAGAIN is SO_SNDTIMEO expiring: the peer stopped reading. The
        // frame may be half-written, so the stream is dead either way.
        throw_errno("send");
      }
      p += n;
      size -= static_cast<std::size_t>(n);
    }
  }

  /// Returns kFrame with `out` filled, or the typed protocol error.
  Status recv(Frame<P>& out) {
    if (fd_ < 0) throw typename P::Error("recv on a closed socket");
    for (;;) {
      const Status st = decoder_.next(out);
      if (st != Status::kNeedMore) return st;
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("recv");
      }
      if (n == 0) throw typename P::Error("peer closed the connection");
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void set_timeout(int option, int seconds) {
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd_, SOL_SOCKET, option, &tv, sizeof tv);
  }

  [[noreturn]] static void throw_errno(const char* op) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw typename P::Error(std::string(op) + " timed out");
    }
    throw typename P::Error(std::string(op) + " failed: " +
                            std::strerror(errno));
  }

  int fd_ = -1;
  Decoder<P> decoder_;
};

}  // namespace fasda::util::frame
