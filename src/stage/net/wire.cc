#include "stage/net/wire.h"

#include <cmath>
#include <vector>

#include "stage/net/json.h"
#include "stage/plan/operator_type.h"

namespace stage::net {

namespace {

// A wire string is u32 length + bytes, capped so a corrupt length cannot
// drive allocation (error messages are short).
constexpr uint32_t kMaxWireStringBytes = 4096;

void AppendString(std::string* out, std::string_view s) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool ParseString(ByteReader* in, std::string* s) {
  uint32_t size = 0;
  if (!in->Read(&size) || size > kMaxWireStringBytes) return false;
  std::string_view bytes;
  if (!in->ReadBytes(size, &bytes)) return false;
  s->assign(bytes);
  return true;
}

// Shared head of predict/observe requests.
void AppendRequestHead(std::string* out, uint64_t request_id, uint64_t tenant,
                       int32_t concurrent_queries, uint64_t tick) {
  AppendPod(out, request_id);
  AppendPod(out, tenant);
  AppendPod(out, concurrent_queries);
  AppendPod(out, tick);
}

bool ParseRequestHead(ByteReader* in, uint64_t* request_id, uint64_t* tenant,
                      int32_t* concurrent_queries, uint64_t* tick) {
  return in->Read(request_id) && in->Read(tenant) &&
         in->Read(concurrent_queries) && in->Read(tick);
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPredictRequest:
      return "predict-request";
    case MessageType::kPredictResponse:
      return "predict-response";
    case MessageType::kObserveRequest:
      return "observe-request";
    case MessageType::kObserveAck:
      return "observe-ack";
    case MessageType::kError:
      return "error";
    case MessageType::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::string_view WireErrorName(WireError error) {
  switch (error) {
    case WireError::kMalformed:
      return "malformed";
    case WireError::kOverloaded:
      return "overloaded";
    case WireError::kUnknownTenant:
      return "unknown-tenant";
    case WireError::kShuttingDown:
      return "shutting-down";
    case WireError::kBadFrame:
      return "bad-frame";
  }
  return "unknown";
}

void AppendPlan(std::string* out, const plan::Plan& plan) {
  AppendPod<uint8_t>(out, static_cast<uint8_t>(plan.query_type()));
  AppendPod<uint32_t>(out, static_cast<uint32_t>(plan.node_count()));
  for (const plan::PlanNode& node : plan.nodes()) {
    AppendPod<uint8_t>(out, static_cast<uint8_t>(node.op));
    AppendPod(out, node.estimated_cost);
    AppendPod(out, node.estimated_cardinality);
    AppendPod(out, node.tuple_width);
    AppendPod<uint8_t>(out, static_cast<uint8_t>(node.s3_format));
    AppendPod(out, node.table_rows);
    AppendPod<uint32_t>(out, static_cast<uint32_t>(node.children.size()));
    for (const int32_t child : node.children) AppendPod(out, child);
  }
}

bool ParsePlan(ByteReader* in, plan::Plan* plan) {
  uint8_t query_type = 0;
  uint32_t node_count = 0;
  if (!in->Read(&query_type) || !in->Read(&node_count)) return false;
  if (node_count == 0 || node_count > kMaxWirePlanNodes) return false;
  // Each node is at least 1+8+8+8+1+8+4 bytes; reject a node count the
  // remaining payload cannot possibly hold before reserving anything.
  if (in->remaining() / 38 < node_count) return false;
  std::vector<plan::PlanNode> nodes(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    plan::PlanNode& node = nodes[i];
    uint8_t op = 0;
    uint8_t s3_format = 0;
    uint32_t child_count = 0;
    if (!in->Read(&op) || !in->Read(&node.estimated_cost) ||
        !in->Read(&node.estimated_cardinality) ||
        !in->Read(&node.tuple_width) || !in->Read(&s3_format) ||
        !in->Read(&node.table_rows) || !in->Read(&child_count)) {
      return false;
    }
    if (op >= static_cast<uint8_t>(plan::OperatorType::kNumOperators)) {
      return false;
    }
    if (s3_format >= static_cast<uint8_t>(plan::S3Format::kNumFormats)) {
      return false;
    }
    node.op = static_cast<plan::OperatorType>(op);
    node.s3_format = static_cast<plan::S3Format>(s3_format);
    if (child_count > node_count || in->remaining() / 4 < child_count) {
      return false;
    }
    node.children.resize(child_count);
    for (uint32_t c = 0; c < child_count; ++c) {
      if (!in->Read(&node.children[c])) return false;
    }
  }
  return BuildWirePlan(query_type, std::move(nodes), plan);
}

bool BuildWirePlan(uint8_t query_type, std::vector<plan::PlanNode> nodes,
                   plan::Plan* plan) {
  if (query_type >= static_cast<uint8_t>(plan::QueryType::kNumQueryTypes)) {
    return false;
  }
  // The Plan constructor aborts on an invalid plan, a fatal a network peer
  // must never be able to trigger, so the one plan predicate runs first.
  if (nodes.size() > kMaxWirePlanNodes || !plan::IsValidPlan(nodes)) {
    return false;
  }
  *plan = plan::Plan(static_cast<plan::QueryType>(query_type),
                     std::move(nodes));
  return true;
}

void AppendPredictRequest(std::string* out, const PredictRequest& request) {
  AppendRequestHead(out, request.request_id, request.tenant,
                    request.concurrent_queries, request.tick);
  AppendPlan(out, request.plan);
}

bool ParsePredictRequest(std::string_view payload, PredictRequest* request) {
  ByteReader in(payload);
  return ParseRequestHead(&in, &request->request_id, &request->tenant,
                          &request->concurrent_queries, &request->tick) &&
         ParsePlan(&in, &request->plan) && in.empty();
}

void AppendPredictResponse(std::string* out, const PredictResponse& response) {
  AppendPod(out, response.request_id);
  AppendPod(out, response.seconds);
  AppendPod<uint8_t>(out, static_cast<uint8_t>(response.source));
  AppendPod(out, response.uncertainty_log_std);
}

bool ParsePredictResponse(std::string_view payload,
                          PredictResponse* response) {
  ByteReader in(payload);
  uint8_t source = 0;
  if (!in.Read(&response->request_id) || !in.Read(&response->seconds) ||
      !in.Read(&source) || !in.Read(&response->uncertainty_log_std) ||
      !in.empty()) {
    return false;
  }
  if (source >= core::kNumPredictionSources) return false;
  response->source = static_cast<core::PredictionSource>(source);
  return true;
}

void AppendObserveRequest(std::string* out, const ObserveRequest& request) {
  AppendRequestHead(out, request.request_id, request.tenant,
                    request.concurrent_queries, request.tick);
  AppendPod(out, request.exec_seconds);
  AppendPlan(out, request.plan);
}

bool ParseObserveRequest(std::string_view payload, ObserveRequest* request) {
  ByteReader in(payload);
  if (!ParseRequestHead(&in, &request->request_id, &request->tenant,
                        &request->concurrent_queries, &request->tick) ||
      !in.Read(&request->exec_seconds)) {
    return false;
  }
  // The predictor's Observe CHECKs a finite exec_seconds >= 0; a wire peer
  // must not be able to trip that.
  if (!std::isfinite(request->exec_seconds) || request->exec_seconds < 0.0) {
    return false;
  }
  return ParsePlan(&in, &request->plan) && in.empty();
}

void AppendObserveAck(std::string* out, const ObserveAck& ack) {
  AppendPod(out, ack.request_id);
}

bool ParseObserveAck(std::string_view payload, ObserveAck* ack) {
  ByteReader in(payload);
  return in.Read(&ack->request_id) && in.empty();
}

void AppendErrorReply(std::string* out, const ErrorReply& error) {
  AppendPod(out, error.request_id);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(error.code));
  AppendString(out, error.message);
}

bool ParseErrorReply(std::string_view payload, ErrorReply* error) {
  ByteReader in(payload);
  uint32_t code = 0;
  if (!in.Read(&error->request_id) || !in.Read(&code) ||
      !ParseString(&in, &error->message) || !in.empty()) {
    return false;
  }
  if (code < static_cast<uint32_t>(WireError::kMalformed) ||
      code > static_cast<uint32_t>(WireError::kBadFrame)) {
    return false;
  }
  error->code = static_cast<WireError>(code);
  return true;
}

void AppendMessage(std::string* out, MessageType type,
                   std::string_view payload) {
  AppendFrame(out, kWireMagic, kWireVersion, static_cast<uint32_t>(type),
              payload);
}

// ---- JSON mode ----------------------------------------------------------

namespace {

void SetJsonError(std::string* error, std::string_view message) {
  if (error != nullptr) error->assign(message);
}

// Numeric field extractors. JSON numbers arrive as doubles; every cast to
// a narrower integer is range-checked first (casting an out-of-range
// double is undefined behavior, which a network peer must not reach).
bool GetFiniteNumber(const JsonValue& object, std::string_view key,
                     double* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number() ||
      !std::isfinite(value->number)) {
    return false;
  }
  *out = value->number;
  return true;
}

bool GetU64(const JsonValue& object, std::string_view key, uint64_t* out) {
  double number = 0.0;
  if (!GetFiniteNumber(object, key, &number) || number < 0.0 ||
      number > 9.007199254740992e15) {  // 2^53: exactly representable.
    return false;
  }
  *out = static_cast<uint64_t>(number);
  return true;
}

bool GetI32(const JsonValue& object, std::string_view key, int32_t* out) {
  double number = 0.0;
  if (!GetFiniteNumber(object, key, &number) || number < -2147483648.0 ||
      number > 2147483647.0) {
    return false;
  }
  *out = static_cast<int32_t>(number);
  return true;
}

bool GetU8Below(const JsonValue& object, std::string_view key, uint8_t limit,
                uint8_t* out) {
  double number = 0.0;
  if (!GetFiniteNumber(object, key, &number) || number < 0.0 ||
      number >= static_cast<double>(limit)) {
    return false;
  }
  *out = static_cast<uint8_t>(number);
  return true;
}

bool ParseJsonPlan(const JsonValue& request, plan::Plan* plan,
                   std::string* error) {
  const JsonValue* plan_value = request.Find("plan");
  if (plan_value == nullptr || !plan_value->is_object()) {
    SetJsonError(error, "missing plan object");
    return false;
  }
  uint8_t query_type = 0;
  if (!GetU8Below(*plan_value, "query_type",
                  static_cast<uint8_t>(plan::QueryType::kNumQueryTypes),
                  &query_type)) {
    SetJsonError(error, "bad plan.query_type");
    return false;
  }
  const JsonValue* nodes_value = plan_value->Find("nodes");
  if (nodes_value == nullptr || !nodes_value->is_array() ||
      nodes_value->array.empty() ||
      nodes_value->array.size() > kMaxWirePlanNodes) {
    SetJsonError(error, "bad plan.nodes");
    return false;
  }
  std::vector<plan::PlanNode> nodes(nodes_value->array.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const JsonValue& node_value = nodes_value->array[i];
    if (!node_value.is_object()) {
      SetJsonError(error, "plan node is not an object");
      return false;
    }
    plan::PlanNode& node = nodes[i];
    uint8_t op = 0;
    uint8_t s3 = 0;
    if (!GetU8Below(node_value, "op",
                    static_cast<uint8_t>(plan::OperatorType::kNumOperators),
                    &op) ||
        !GetU8Below(node_value, "s3",
                    static_cast<uint8_t>(plan::S3Format::kNumFormats), &s3) ||
        !GetFiniteNumber(node_value, "cost", &node.estimated_cost) ||
        !GetFiniteNumber(node_value, "card", &node.estimated_cardinality) ||
        !GetFiniteNumber(node_value, "width", &node.tuple_width) ||
        !GetFiniteNumber(node_value, "rows", &node.table_rows)) {
      SetJsonError(error, "bad plan node field");
      return false;
    }
    node.op = static_cast<plan::OperatorType>(op);
    node.s3_format = static_cast<plan::S3Format>(s3);
    const JsonValue* children = node_value.Find("children");
    if (children != nullptr) {
      if (!children->is_array()) {
        SetJsonError(error, "plan node children is not an array");
        return false;
      }
      node.children.reserve(children->array.size());
      for (const JsonValue& child : children->array) {
        if (!child.is_number() || !std::isfinite(child.number) ||
            child.number < 0.0 ||
            child.number >= static_cast<double>(nodes.size())) {
          SetJsonError(error, "plan node child out of range");
          return false;
        }
        node.children.push_back(static_cast<int32_t>(child.number));
      }
    }
  }
  if (!BuildWirePlan(query_type, std::move(nodes), plan)) {
    SetJsonError(error, "plan tree is not a valid pre-order tree");
    return false;
  }
  return true;
}

bool ParseJsonRequestHead(const JsonValue& request, uint64_t* request_id,
                          uint64_t* tenant, int32_t* concurrent,
                          uint64_t* tick, std::string* error) {
  // `id` is optional (defaults to 0) so a one-off `nc` probe stays terse;
  // the rest of the head is mandatory.
  *request_id = 0;
  if (request.Find("id") != nullptr && !GetU64(request, "id", request_id)) {
    SetJsonError(error, "bad id");
    return false;
  }
  if (!GetU64(request, "tenant", tenant)) {
    SetJsonError(error, "bad tenant");
    return false;
  }
  if (!GetI32(request, "concurrent", concurrent)) {
    SetJsonError(error, "bad concurrent");
    return false;
  }
  *tick = 0;
  if (request.Find("tick") != nullptr && !GetU64(request, "tick", tick)) {
    SetJsonError(error, "bad tick");
    return false;
  }
  return true;
}

}  // namespace

bool ParseJsonRequest(std::string_view line, bool* is_predict,
                      PredictRequest* predict, ObserveRequest* observe,
                      std::string* error) {
  JsonValue request;
  if (!ParseJson(line, &request) || !request.is_object()) {
    SetJsonError(error, "line is not a JSON object");
    return false;
  }
  const JsonValue* type = request.Find("type");
  if (type == nullptr || !type->is_string()) {
    SetJsonError(error, "missing type");
    return false;
  }
  if (type->string_value == "predict") {
    *is_predict = true;
    return ParseJsonRequestHead(request, &predict->request_id,
                                &predict->tenant,
                                &predict->concurrent_queries, &predict->tick,
                                error) &&
           ParseJsonPlan(request, &predict->plan, error);
  }
  if (type->string_value == "observe") {
    *is_predict = false;
    if (!ParseJsonRequestHead(request, &observe->request_id,
                              &observe->tenant,
                              &observe->concurrent_queries, &observe->tick,
                              error)) {
      return false;
    }
    // Same guard as the binary parser: the predictor CHECKs a finite
    // exec_seconds >= 0.
    if (!GetFiniteNumber(request, "exec_seconds", &observe->exec_seconds) ||
        !(observe->exec_seconds >= 0.0)) {
      SetJsonError(error, "bad exec_seconds");
      return false;
    }
    return ParseJsonPlan(request, &observe->plan, error);
  }
  SetJsonError(error, "unknown type (want predict|observe)");
  return false;
}

void AppendJsonPredictResponse(std::string* out, const PredictResponse& r) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("type").String("predict");
  writer.Key("id").UInt(r.request_id);
  writer.Key("seconds").Double(r.seconds);
  writer.Key("source").String(core::PredictionSourceName(r.source));
  writer.Key("uncertainty_log_std").Double(r.uncertainty_log_std);
  writer.EndObject();
  out->push_back('\n');
}

void AppendJsonObserveAck(std::string* out, const ObserveAck& ack) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("type").String("observe_ack");
  writer.Key("id").UInt(ack.request_id);
  writer.EndObject();
  out->push_back('\n');
}

void AppendJsonError(std::string* out, const ErrorReply& error) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("type").String("error");
  writer.Key("id").UInt(error.request_id);
  writer.Key("code").String(WireErrorName(error.code));
  writer.Key("message").String(error.message);
  writer.EndObject();
  out->push_back('\n');
}

void AppendJsonShutdown(std::string* out) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("type").String("shutdown");
  writer.EndObject();
  out->push_back('\n');
}

}  // namespace stage::net
