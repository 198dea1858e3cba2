#pragma once
// Control framing for the shard transport (DESIGN.md §14).
//
// A shard::ProcTransport parent and its worker processes exchange
// util/frame.hpp frames over a stream socketpair. Data packets ride inside
// kReport/kDeliver payloads in the net/wire.hpp encoding — the same Packet
// wire format the fuzz tests cover — framed, not re-framed: the frame CRC
// covers them like any other payload bytes.
//
// The channel is strictly request/reply in frame order (the socket is a
// FIFO), so no frame carries a sequence number. A peer that dies mid-frame
// or a damaged frame surfaces as TransportError from recv_frame()/send(),
// which ProcTransport converts into the typed sync::NodeFailureError for
// the owning node.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fasda/util/frame.hpp"

namespace fasda::shard {

/// Round protocol frame types (DESIGN.md §14). Parent-to-worker frames
/// first, worker-to-parent replies second; kError may replace any reply.
enum class FrameType : std::uint8_t {
  kStart = 1,   ///< parent→worker: arm owned nodes for N iterations
  kSweep,       ///< parent→worker: run the loop-top wake sweep
  kJump,        ///< parent→worker: jump a globally dead window
  kExec,        ///< parent→worker: execute one cycle
  kDeliver,     ///< parent→worker: routed deliveries + barrier releases
  kFinish,      ///< parent→worker: settle the run (flush deferred idle)
  kFold,        ///< parent→worker: request the end-of-run cluster fold
  kShutdown,    ///< parent→worker: exit cleanly
  kStatus,      ///< worker→parent: per-owned-node health statuses
  kWake,        ///< worker→parent: the swept minimum wake cycle
  kReport,      ///< worker→parent: statuses + barrier votes + deliveries
  kFoldData,    ///< worker→parent: the serialized fold payload
  kError,       ///< worker→parent: exception text; worker exits after
};

/// Transport-boundary failure: peer closed, syscall error, or a damaged
/// frame. Never escapes shard::ProcTransport — it is converted to
/// sync::NodeFailureError naming the dead worker's first node.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("shard: " + what) {}
};

struct ShardProtocol {
  using Type = FrameType;
  using Error = TransportError;
  /// A control frame bigger than this is certainly a desynchronized
  /// stream: even a full-cluster fold stays far below it.
  static constexpr std::uint32_t kMaxLength = 1u << 30;
  static bool known(std::uint8_t t) {
    return t >= static_cast<std::uint8_t>(FrameType::kStart) &&
           t <= static_cast<std::uint8_t>(FrameType::kError);
  }
};

using Frame = util::frame::Frame<ShardProtocol>;

/// One end of a worker socketpair. send()/recv_frame() block until the
/// whole frame moved (the protocol is lock-step, so a blocked peer means
/// the other side is computing, not deadlocked).
using Channel = util::frame::Socket<ShardProtocol>;

/// The shard's error policy: a damaged frame means a dead worker, so
/// every protocol error throws like a closed socket does.
inline Frame recv_frame(Channel& chan) {
  Frame f;
  const util::frame::Status st = chan.recv(f);
  if (st != util::frame::Status::kFrame) {
    throw TransportError(std::string("damaged frame: ") +
                         util::frame::status_name(st));
  }
  return f;
}

}  // namespace fasda::shard
