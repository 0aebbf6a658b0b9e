#ifndef STAGE_NET_WIRE_H_
#define STAGE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stage/common/framing.h"
#include "stage/core/predictor.h"
#include "stage/plan/plan.h"

namespace stage::net {

// The prediction wire protocol: length-prefixed binary frames sharing the
// 24-byte envelope vocabulary with the checkpoint subsystem
// (stage/common/framing.h) — magic "SNET" instead of "SSNP", MessageType
// instead of SnapshotKind, CRC32 over every payload. A connection may
// instead speak line-delimited JSON (see json.h); the server auto-detects
// the mode from the first byte ('{' = JSON).
inline constexpr uint32_t kWireMagic = 0x54454e53;  // "SNET" little-endian.
inline constexpr uint32_t kWireVersion = 1;

// Upper bound a well-formed frame may declare; anything larger is treated
// as a corrupt length field (the server additionally enforces its own
// configured cap, which must not exceed this).
inline constexpr uint64_t kMaxWirePayloadBytes = 8ull << 20;

// Largest plan the wire accepts. The generator tops out around dozens of
// nodes; the cap exists so a hostile node_count cannot drive allocation.
inline constexpr uint32_t kMaxWirePlanNodes = 1u << 16;

enum class MessageType : uint32_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kObserveRequest = 3,
  kObserveAck = 4,
  kError = 5,
  // Server -> client, sent to every open connection during graceful
  // shutdown once the request in flight has been answered. Carries no
  // payload.
  kShutdown = 6,
};

std::string_view MessageTypeName(MessageType type);

enum class WireError : uint32_t {
  kMalformed = 1,      // Frame decoded but the payload did not parse.
  kOverloaded = 2,     // Retry later. Reserved: the server's backpressure
                       // is TCP flow control, so it never sends this.
  kUnknownTenant = 3,  // Tenant id not registered with the fleet.
  kShuttingDown = 4,   // Server is draining; no new work accepted.
  kBadFrame = 5,       // Envelope-level corruption; connection closes.
};

std::string_view WireErrorName(WireError error);

// A predict call crossing the wire. The plan carries only the observable
// optimizer estimates (operator, cost, cardinality, width, storage format,
// table rows, tree shape) — the hidden ground-truth fields (table_id,
// actual_cardinality) never have an encoding, so a client physically
// cannot leak them to the predictor. The server rebuilds the QueryContext
// (features + hash) from the decoded plan with core::MakeQueryContext,
// which is deterministic, so served predictions are bit-for-bit identical
// to in-process calls on the same plan.
struct PredictRequest {
  uint64_t request_id = 0;  // Client-chosen, echoed in the response.
  uint64_t tenant = 0;
  int32_t concurrent_queries = 0;
  uint64_t tick = 0;
  plan::Plan plan;
};

struct PredictResponse {
  uint64_t request_id = 0;
  // Raw IEEE-754 bits of the prediction cross the wire, so "bit-for-bit
  // identical to in-process" is literal.
  double seconds = 0.0;
  core::PredictionSource source = core::PredictionSource::kDefault;
  double uncertainty_log_std = -1.0;
};

struct ObserveRequest {
  uint64_t request_id = 0;
  uint64_t tenant = 0;
  int32_t concurrent_queries = 0;
  uint64_t tick = 0;
  double exec_seconds = 0.0;
  plan::Plan plan;
};

struct ObserveAck {
  uint64_t request_id = 0;
};

struct ErrorReply {
  uint64_t request_id = 0;  // 0 when the request id could not be parsed.
  WireError code = WireError::kMalformed;
  std::string message;
};

// ---- Plan (de)serialization -------------------------------------------

// Appends the wire form of `plan`: u8 query_type, u32 node_count, then per
// node u8 op, f64 cost, f64 cardinality, f64 width, u8 s3_format, f64
// table_rows, u32 child_count, i32 children[].
void AppendPlan(std::string* out, const plan::Plan& plan);

// Parses and validates a wire plan. Validation happens BEFORE the Plan is
// constructed (the Plan constructor aborts on an invalid plan — a fatal a
// network peer must never be able to trigger): enums in range, then
// BuildWirePlan's checks. Returns false on any violation.
bool ParsePlan(ByteReader* in, plan::Plan* plan);

// The rest of that validation, shared by the binary and JSON decoders:
// query_type in range, at most kMaxWirePlanNodes nodes, and
// plan::IsValidPlan (a pre-order tree rooted at node 0 whose estimates are
// finite and >= 0). Callers must already have range-checked the per-node
// enums. Constructs *plan only when everything holds.
bool BuildWirePlan(uint8_t query_type, std::vector<plan::PlanNode> nodes,
                   plan::Plan* plan);

// ---- Payload encode/parse ---------------------------------------------
// Encoders append the payload to a caller-reused buffer; frame wrapping is
// AppendMessage / framing's WriteFrame. Parsers consume the whole payload
// (trailing bytes are a parse error — a frame says exactly one thing).

void AppendPredictRequest(std::string* out, const PredictRequest& request);
bool ParsePredictRequest(std::string_view payload, PredictRequest* request);

void AppendPredictResponse(std::string* out, const PredictResponse& response);
bool ParsePredictResponse(std::string_view payload, PredictResponse* response);

void AppendObserveRequest(std::string* out, const ObserveRequest& request);
bool ParseObserveRequest(std::string_view payload, ObserveRequest* request);

void AppendObserveAck(std::string* out, const ObserveAck& ack);
bool ParseObserveAck(std::string_view payload, ObserveAck* ack);

void AppendErrorReply(std::string* out, const ErrorReply& error);
bool ParseErrorReply(std::string_view payload, ErrorReply* error);

// Wraps an already-encoded payload in a wire frame.
void AppendMessage(std::string* out, MessageType type,
                   std::string_view payload);

// ---- JSON mode ----------------------------------------------------------
// Line-delimited JSON with the same semantics as the binary frames, for
// debug clients (`nc`-able). A connection whose first byte is '{' speaks
// this mode. Requests:
//
//   {"type":"predict","id":1,"tenant":0,"concurrent":4,"tick":12,
//    "plan":{"query_type":0,"nodes":[{"op":2,"cost":10.5,"card":100,
//            "width":8,"s3":0,"rows":1e6,"children":[1]}, ...]}}
//   {"type":"observe", ...same head..., "exec_seconds":1.25, "plan":{...}}
//
// Responses (one line each): {"type":"predict","id":..,"seconds":..,
// "source":"global","uncertainty_log_std":..}, {"type":"observe_ack",
// "id":..}, {"type":"error","id":..,"code":"overloaded","message":".."},
// {"type":"shutdown"}.

// Parses one request line, applying the same validation as the binary
// parsers (enum ranges, node numerics, tree structure, finite
// exec_seconds >= 0). On failure fills `error` with a short reason.
bool ParseJsonRequest(std::string_view line, bool* is_predict,
                      PredictRequest* predict, ObserveRequest* observe,
                      std::string* error);

// Each appends one newline-terminated JSON line.
void AppendJsonPredictResponse(std::string* out, const PredictResponse& r);
void AppendJsonObserveAck(std::string* out, const ObserveAck& ack);
void AppendJsonError(std::string* out, const ErrorReply& error);
void AppendJsonShutdown(std::string* out);

}  // namespace stage::net

#endif  // STAGE_NET_WIRE_H_
