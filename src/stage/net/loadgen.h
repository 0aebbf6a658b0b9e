#ifndef STAGE_NET_LOADGEN_H_
#define STAGE_NET_LOADGEN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stage/core/predictor.h"
#include "stage/net/wire.h"
#include "stage/plan/plan.h"

namespace stage::net {

// Workload shape for the pipelined load generator: `connections`
// nonblocking sockets, each keeping `pipeline` predict requests in flight
// until it has sent `requests_per_connection`. Tenant ids round-robin over
// [0, tenants) by connection, so with connections >= tenants every tenant
// stays busy. Single-threaded by design — one poll() loop drives all
// sockets, so client-side cost stays flat while the server is what's
// under test.
struct LoadgenConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 16;
  int pipeline = 8;
  int64_t requests_per_connection = 500;
  int tenants = 4;
  int concurrent_queries = 8;  // Reported load in every request head.

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

struct LoadgenResult {
  uint64_t completed = 0;  // Predict responses received.
  uint64_t errors = 0;     // Error frames received (count as completed work).
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  // Client-observed per-request latency (send to response).
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  // Which predictor stage served the responses (sanity: an all-escalating
  // workload should be served entirely by kGlobal).
  std::array<uint64_t, core::kNumPredictionSources> source_counts{};
};

// Runs the workload against a serve-net endpoint, drawing plans
// round-robin from `plans` (must be non-empty; tenants [0, config.tenants)
// must be registered on the server). Returns false + `error` on transport
// or stall failures.
bool RunLoadgen(const LoadgenConfig& config,
                const std::vector<plan::Plan>& plans, LoadgenResult* result,
                std::string* error);

}  // namespace stage::net

#endif  // STAGE_NET_LOADGEN_H_
