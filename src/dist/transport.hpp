// Byte transports for the distributed round loop (see dist.hpp).
//
// A Transport is one ordered, reliable, framed byte channel between the
// coordinator and ONE worker. The dist layer speaks whole frames
// (common/wire.hpp) over it; the transport's only jobs are full-frame
// delivery in FIFO order and honest death reporting: any sign that the peer
// is gone -- EOF, EPIPE, a reset -- surfaces as worker_lost_error, which
// derives from dvc::transient_error so the service layer's retry heals a
// killed worker exactly like an injected shard crash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace dvc::dist {

/// Frame types of the coordinator<->worker protocol. Carried in the wire
/// frame header's `type` byte; payload layouts are documented in dist.cpp
/// next to their encoders.
enum class FrameType : std::uint8_t {
  kSweep = 1,   ///< coordinator -> worker: run one sweep (payload: is_begin)
  kMsgs = 2,    ///< worker -> coordinator -> worker: cross-worker messages
  kStats = 3,   ///< worker -> coordinator: per-shard sweep counters
  kFinish = 4,  ///< coordinator -> worker: phase done, ship program state
  kState = 5,   ///< worker -> coordinator: owned program state rows
  kError = 6,   ///< worker -> coordinator: the sweep threw; payload encodes it
};

/// A worker process (or simulated loopback worker) died or its channel
/// broke. Transient by design: the computation is deterministic, so a
/// retry -- fresh workers, same inputs -- produces the identical result,
/// and the service's replay against the held phase log verifies exactly
/// that.
class worker_lost_error : public transient_error {
 public:
  worker_lost_error(const std::string& what, int worker, int phase, int round)
      : transient_error(what), worker(worker), phase(phase), round(round) {}

  int worker;  ///< 0-based worker index
  int phase;   ///< phase index at loss detection, -1 if unknown
  int round;   ///< round at loss detection, -1 if unknown
};

/// One coordinator<->worker channel. send/recv move whole wire frames;
/// both throw worker_lost_error once the peer is gone.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Ships one complete frame (header + payload + trailer).
  virtual void send(std::span<const std::uint8_t> frame) = 0;
  /// Blocks for the peer's next frame and returns it whole. The caller
  /// validates content via wire::frame_payload.
  virtual std::vector<std::uint8_t> recv() = 0;
  /// Releases the channel (close the fd / drop queues). Idempotent; never
  /// throws.
  virtual void shutdown() = 0;
};

/// Transport over one end of a Unix socketpair. Owns the fd. Writes use
/// MSG_NOSIGNAL (a dead peer must raise worker_lost_error, not SIGPIPE);
/// reads treat EOF anywhere -- even mid-frame -- as peer death.
class SocketTransport final : public Transport {
 public:
  /// Takes ownership of `fd`. `worker` labels errors; pass -1 on the worker
  /// side (where the peer is the coordinator).
  SocketTransport(int fd, int worker);
  ~SocketTransport() override;

  void send(std::span<const std::uint8_t> frame) override;
  std::vector<std::uint8_t> recv() override;
  void shutdown() override;

 private:
  [[noreturn]] void lost(const std::string& why);
  void read_exact(std::uint8_t* dst, std::size_t n);

  int fd_;
  int worker_;
};

}  // namespace dvc::dist
