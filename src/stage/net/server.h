#ifndef STAGE_NET_SERVER_H_
#define STAGE_NET_SERVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "stage/fleet_serve/fleet_service.h"
#include "stage/metrics/latency_recorder.h"
#include "stage/net/wire.h"
#include "stage/obs/metrics.h"

namespace stage::net {

// Knobs for the prediction server. Integer knobs are deliberately signed:
// a CLI flag or config file can hand us a negative value, and Validate must
// be able to say so instead of the unsigned cast silently turning it into
// a huge positive one.
struct ServerConfig {
  std::string host = "127.0.0.1";
  // 0 binds a kernel-assigned ephemeral port; read it back via port().
  int port = 0;

  // Event-loop worker threads (each owns an epoll instance and a shard of
  // the connections, and serves every request it reads).
  int num_workers = 2;

  int64_t max_connections = 256;

  // Per-frame payload cap; a peer declaring more gets kBadFrame and a
  // close. Must not exceed kMaxWirePayloadBytes.
  int64_t max_frame_payload_bytes = 1 << 20;
  // JSON-mode line cap (a line longer than this is malformed).
  int64_t max_json_line_bytes = 1 << 20;

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

struct ServerOptions {
  // When set, the server registers its telemetry (owner-tagged callbacks,
  // unregistered in the destructor).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "stage_net_";
};

// Indexes ServerStats::batch_flushes; only perfbench/net_common.cc uses it.
enum class FlushReason { kFull = 0, kTimeout };
inline constexpr int kNumFlushReasons = 2;

// Sampled aggregate counters (tests, CLI dumps). All monotone except the
// gauges at the bottom.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // Closed at accept: at capacity.
  uint64_t frames_in = 0;             // Binary frames decoded.
  uint64_t frames_out = 0;            // Binary frames written.
  uint64_t json_lines_in = 0;
  uint64_t json_lines_out = 0;
  uint64_t predictions = 0;
  uint64_t observes = 0;
  // Indexed by WireError value (slot 0 unused).
  std::array<uint64_t, 6> errors_by_code{};
  // Always 0; perfbench/net_common.cc is the only reader.
  std::array<uint64_t, kNumFlushReasons> batch_flushes{};
  // Gauges.
  uint64_t connections_active = 0;
  // Always 0; perfbench/net_common.cc is the only reader.
  uint64_t effective_window_us = 0;
};

// The epoll-based async prediction server: FleetService behind a socket.
// Self-owned — no framework; plain epoll, eventfd, and nonblocking
// sockets.
//
// Thread model:
//   * one listener thread: accepts, round-robins connections to workers;
//   * num_workers worker threads: each runs an edge-triggered epoll loop
//     over its shard of connections plus an eventfd-signaled mailbox of
//     {new connections, stop}. Workers own all connection state — no
//     connection is ever touched by two threads — and serve every request
//     where they read it: FleetService::Predict or Observe, then the reply,
//     in request order.
//
// Protocol: length-prefixed binary frames (wire.h) or line-delimited JSON
// (auto-detected from the first byte, '{' = JSON). Predictions served over
// either mode are bit-for-bit identical to in-process
// FleetService::Predict — the server rebuilds the QueryContext from the
// decoded plan with the same deterministic featurizer.
//
// Backpressure is TCP's: a worker reads a connection only as fast as it
// answers it, so there is no server-side queue to bound (kOverloaded is
// never sent), and a peer that stops reading its replies is closed once
// 16 MiB of them are stuck in its write buffer.
//
// Graceful shutdown (Shutdown / destructor): stop the intake (every later
// request is answered kShuttingDown) and close the listener; then each
// worker finishes the request it is serving, answers whatever it still
// reads with kShuttingDown, writes a shutdown frame to every open
// connection, and closes it.
class Server {
 public:
  // Binds and starts serving immediately. Aborts via STAGE_CHECK on an
  // invalid config; fails (STAGE_CHECK) if the socket cannot bind.
  Server(fleet_serve::FleetService* fleet, const ServerConfig& config,
         const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (== config.port unless that was 0).
  int port() const;

  // Graceful shutdown; idempotent, thread-safe against itself.
  void Shutdown();

  ServerStats Stats() const;

  // Always empty; perfbench/net_common.cc is the only reader.
  obs::Histogram::Snapshot batch_size_histogram() const { return {}; }

  // Per-frame serving latency, decode to response. Slots:
  static constexpr size_t kLatencyPredict = 0;
  static constexpr size_t kLatencyObserve = 1;
  const metrics::LatencyRecorder& frame_latency() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stage::net

#endif  // STAGE_NET_SERVER_H_
