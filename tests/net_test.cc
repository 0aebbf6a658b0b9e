// Tests for the stage::net network edge: config validation (including
// death tests for the STAGE_CHECK-on-construction contract), the JSON
// writer/parser pair, wire round-trips (and the ground-truth fields that
// must NOT survive a round-trip), hostile-plan rejection, and the server
// itself: socket predictions bit-for-bit identical to in-process
// FleetService::Predict in binary and JSON modes; pipelined requests
// answered in request order; observes applied over the socket match an
// in-process twin; error replies for unknown tenants / malformed payloads
// / corrupt frames / over-long JSON lines; graceful shutdown (the request
// in flight answered, later ones refused, then a shutdown frame, then
// EOF); metrics exposition; and a multi-connection stress run for the
// TSan lane (NetStressTest.*).
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/global/global_model.h"
#include "stage/net/client.h"
#include "stage/net/json.h"
#include "stage/net/loadgen.h"
#include "stage/net/server.h"
#include "stage/net/wire.h"
#include "stage/obs/metrics.h"

namespace stage::net {
namespace {

core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

fleet_serve::FleetServiceConfig DeterministicFleet() {
  fleet_serve::FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = false;
  return config;
}

// A deterministic three-node plan tree (join over two scans) whose feature
// vector varies with `knob`.
plan::Plan MakeWirePlan(double knob) {
  plan::PlanNode join;
  join.op = plan::OperatorType::kHashJoinLocal;
  join.estimated_cost = 100.0 + knob;
  join.estimated_cardinality = 50.0 * knob;
  join.tuple_width = 24.0;
  join.children = {1, 2};
  plan::PlanNode scan_a;
  scan_a.op = plan::OperatorType::kSeqScanLocal;
  scan_a.estimated_cost = knob;
  scan_a.estimated_cardinality = knob * 10.0;
  scan_a.tuple_width = 16.0;
  scan_a.s3_format = plan::S3Format::kLocal;
  scan_a.table_rows = 1000.0 * knob;
  plan::PlanNode scan_b;
  scan_b.op = plan::OperatorType::kSeqScanS3;
  scan_b.estimated_cost = 2.0 * knob;
  scan_b.estimated_cardinality = knob * 3.0;
  scan_b.tuple_width = 8.0;
  scan_b.s3_format = plan::S3Format::kParquet;
  scan_b.table_rows = 500.0;
  return plan::Plan(plan::QueryType::kSelect, {join, scan_a, scan_b});
}

// A finite, non-negative estimate no test plan holds by accident.
constexpr double kEstimateMarker = 12345.6789;

// The predict payload of `request`, whose plan holds kEstimateMarker in
// exactly one estimate, with that estimate's bytes replaced by `bad`. The
// Plan constructor refuses a NaN, infinite or negative estimate, so this
// is how a test sends what a hostile peer can.
std::string WithMarkedEstimate(const PredictRequest& request, double bad) {
  std::string payload;
  AppendPredictRequest(&payload, request);
  const std::string_view marker(
      reinterpret_cast<const char*>(&kEstimateMarker), sizeof(double));
  const size_t at = payload.find(marker);
  if (at == std::string::npos ||
      payload.find(marker, at + 1) != std::string::npos) {
    ADD_FAILURE() << "the plan must hold the marker exactly once";
    return payload;
  }
  std::memcpy(payload.data() + at, &bad, sizeof(bad));
  return payload;
}

// ---- Config validation --------------------------------------------------

TEST(ServerConfigTest, ValidateRejectsNonsense) {
  ServerConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.port = -1;
  EXPECT_FALSE(config.Validate().empty());
  config.port = 70000;
  EXPECT_FALSE(config.Validate().empty());
  config.port = 0;

  config.num_workers = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.num_workers = 2;

  config.max_connections = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_connections = 256;

  config.max_frame_payload_bytes = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_frame_payload_bytes =
      static_cast<int64_t>(kMaxWirePayloadBytes) + 1;
  EXPECT_FALSE(config.Validate().empty());
  config.max_frame_payload_bytes = 1 << 20;

  config.max_json_line_bytes = 1;
  EXPECT_FALSE(config.Validate().empty());
  config.max_json_line_bytes = 1 << 20;
  EXPECT_TRUE(config.Validate().empty());
}

TEST(LoadgenConfigTest, ValidateRejectsNonsense) {
  LoadgenConfig config;
  config.port = 1234;
  EXPECT_TRUE(config.Validate().empty());

  config.host.clear();
  EXPECT_FALSE(config.Validate().empty());
  config.host = "127.0.0.1";

  config.port = 0;  // Loadgen needs a real endpoint, not "pick one".
  EXPECT_FALSE(config.Validate().empty());
  config.port = 1234;

  config.connections = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.connections = 5000;
  EXPECT_FALSE(config.Validate().empty());
  config.connections = 16;

  config.pipeline = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.pipeline = 8;

  config.requests_per_connection = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.requests_per_connection = 10;

  config.tenants = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.tenants = 2;

  config.concurrent_queries = -1;
  EXPECT_FALSE(config.Validate().empty());
  config.concurrent_queries = 0;
  EXPECT_TRUE(config.Validate().empty());
}

using NetDeathTest = ::testing::Test;

TEST(NetDeathTest, ServerAbortsOnInvalidConfig) {
  EXPECT_DEATH(
      {
        fleet_serve::FleetService fleet(DeterministicFleet());
        ServerConfig config;
        config.num_workers = 0;
        Server server(&fleet, config);
      },
      "num_workers");
}

// ---- JSON writer / parser ----------------------------------------------

TEST(JsonWriterTest, WritesNestedStructures) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("id").UInt(7);
  w.Key("name").String("a\"b\\c\nd");
  w.Key("xs").BeginArray();
  w.Int(-3);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested").BeginObject().Key("k").Double(0.25).EndObject();
  w.EndObject();
  EXPECT_EQ(out,
            "{\"id\":7,\"name\":\"a\\\"b\\\\c\\nd\",\"xs\":[-3,true,null],"
            "\"nested\":{\"k\":0.25}}");
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           -0.0};
  for (const double v : values) {
    std::string out;
    JsonWriter(&out).Double(v);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
  std::string out;
  JsonWriter(&out).Double(std::nan(""));
  EXPECT_EQ(out, "null");  // JSON has no NaN; null is the honest spelling.
}

TEST(JsonParseTest, ParsesObjectsArraysAndEscapes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"( {"a": 1.5, "b": [true, null, "x\ty"], "c": {"d": -2}} )", &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("a")->number, 1.5);
  ASSERT_TRUE(v.Find("b")->is_array());
  EXPECT_EQ(v.Find("b")->array.size(), 3u);
  EXPECT_EQ(v.Find("b")->array[2].string_value, "x\ty");
  EXPECT_DOUBLE_EQ(v.Find("c")->Find("d")->number, -2.0);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"k":1,"k":2})", &v));
  EXPECT_DOUBLE_EQ(v.Find("k")->number, 2.0);
}

TEST(JsonParseTest, RejectsGarbage) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v));
  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson("{\"a\":}", &v));
  EXPECT_FALSE(ParseJson("{} trailing", &v));
  EXPECT_FALSE(ParseJson("nul", &v));
  EXPECT_FALSE(ParseJson("\"unterminated", &v));
  // Depth bomb beyond the 32-level cap.
  std::string deep(64, '[');
  deep += std::string(64, ']');
  EXPECT_FALSE(ParseJson(deep, &v));
}

TEST(JsonParseTest, WriterOutputParsesBack) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("seconds").Double(1.0 / 7.0);
  w.Key("source").String("global");
  w.EndObject();
  JsonValue v;
  ASSERT_TRUE(ParseJson(out, &v));
  EXPECT_DOUBLE_EQ(v.Find("seconds")->number, 1.0 / 7.0);
  EXPECT_EQ(v.Find("source")->string_value, "global");
}

// ---- Wire round-trips ---------------------------------------------------

TEST(WireTest, PredictRequestRoundTrips) {
  PredictRequest request;
  request.request_id = 0xdeadbeefcafeull;
  request.tenant = 42;
  request.concurrent_queries = 7;
  request.tick = 991;
  request.plan = MakeWirePlan(3.5);

  std::string payload;
  AppendPredictRequest(&payload, request);
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(payload, &parsed));
  EXPECT_EQ(parsed.request_id, request.request_id);
  EXPECT_EQ(parsed.tenant, request.tenant);
  EXPECT_EQ(parsed.concurrent_queries, request.concurrent_queries);
  EXPECT_EQ(parsed.tick, request.tick);
  ASSERT_EQ(parsed.plan.node_count(), request.plan.node_count());
  EXPECT_EQ(parsed.plan.query_type(), request.plan.query_type());
  for (int i = 0; i < request.plan.node_count(); ++i) {
    const plan::PlanNode& want = request.plan.node(i);
    const plan::PlanNode& got = parsed.plan.node(i);
    EXPECT_EQ(got.op, want.op) << i;
    EXPECT_DOUBLE_EQ(got.estimated_cost, want.estimated_cost) << i;
    EXPECT_DOUBLE_EQ(got.estimated_cardinality, want.estimated_cardinality)
        << i;
    EXPECT_DOUBLE_EQ(got.tuple_width, want.tuple_width) << i;
    EXPECT_EQ(got.s3_format, want.s3_format) << i;
    EXPECT_DOUBLE_EQ(got.table_rows, want.table_rows) << i;
    EXPECT_EQ(got.children, want.children) << i;
  }
}

TEST(WireTest, GroundTruthFieldsHaveNoEncoding) {
  // The fleet's hidden ground-truth fields must be physically absent from
  // the wire: a client cannot leak them to the predictor even on purpose.
  PredictRequest request;
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.estimated_cost = 5.0;
  node.estimated_cardinality = 50.0;
  node.s3_format = plan::S3Format::kLocal;
  node.table_rows = 100.0;
  node.table_id = 77;                // Ground truth.
  node.actual_cardinality = 12345.0; // Ground truth.
  request.plan = plan::Plan(plan::QueryType::kSelect, {node});

  std::string payload;
  AppendPredictRequest(&payload, request);
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(payload, &parsed));
  EXPECT_EQ(parsed.plan.node(0).table_id, -1);
  EXPECT_DOUBLE_EQ(parsed.plan.node(0).actual_cardinality, 0.0);
}

TEST(WireTest, ResponsesAndErrorsRoundTrip) {
  PredictResponse response;
  response.request_id = 9;
  response.seconds = 1.0 / 3.0;
  response.source = core::PredictionSource::kGlobal;
  response.uncertainty_log_std = 0.75;
  std::string payload;
  AppendPredictResponse(&payload, response);
  PredictResponse parsed_response;
  ASSERT_TRUE(ParsePredictResponse(payload, &parsed_response));
  EXPECT_EQ(parsed_response.request_id, 9u);
  EXPECT_EQ(parsed_response.seconds, response.seconds);  // Bit-exact.
  EXPECT_EQ(parsed_response.source, core::PredictionSource::kGlobal);
  EXPECT_EQ(parsed_response.uncertainty_log_std, 0.75);

  ObserveAck ack{.request_id = 17};
  payload.clear();
  AppendObserveAck(&payload, ack);
  ObserveAck parsed_ack;
  ASSERT_TRUE(ParseObserveAck(payload, &parsed_ack));
  EXPECT_EQ(parsed_ack.request_id, 17u);

  ErrorReply error{.request_id = 4,
                   .code = WireError::kOverloaded,
                   .message = "batch queue full"};
  payload.clear();
  AppendErrorReply(&payload, error);
  ErrorReply parsed_error;
  ASSERT_TRUE(ParseErrorReply(payload, &parsed_error));
  EXPECT_EQ(parsed_error.request_id, 4u);
  EXPECT_EQ(parsed_error.code, WireError::kOverloaded);
  EXPECT_EQ(parsed_error.message, "batch queue full");
}

TEST(WireTest, ObserveRequestRoundTripsAndRejectsBadExecSeconds) {
  ObserveRequest request;
  request.request_id = 3;
  request.tenant = 1;
  request.tick = 5;
  request.exec_seconds = 2.25;
  request.plan = MakeWirePlan(1.0);
  std::string payload;
  AppendObserveRequest(&payload, request);
  ObserveRequest parsed;
  ASSERT_TRUE(ParseObserveRequest(payload, &parsed));
  EXPECT_EQ(parsed.exec_seconds, 2.25);

  ObserveRequest negative = request;
  negative.exec_seconds = -1.0;
  payload.clear();
  AppendObserveRequest(&payload, negative);
  EXPECT_FALSE(ParseObserveRequest(payload, &parsed));

  ObserveRequest nan = request;
  nan.exec_seconds = std::nan("");
  payload.clear();
  AppendObserveRequest(&payload, nan);
  EXPECT_FALSE(ParseObserveRequest(payload, &parsed));
}

TEST(WireTest, ParsersRejectTruncationAndTrailingBytes) {
  PredictRequest request;
  request.plan = MakeWirePlan(2.0);
  std::string payload;
  AppendPredictRequest(&payload, request);

  PredictRequest parsed;
  // A frame says exactly one thing: trailing bytes are an error.
  EXPECT_FALSE(ParsePredictRequest(payload + "x", &parsed));
  // Truncation anywhere fails cleanly (the fuzz test does every byte; this
  // pins the property in the unit suite too).
  EXPECT_FALSE(
      ParsePredictRequest(std::string_view(payload).substr(0, 10), &parsed));
}

// Hostile plans must be rejected by the parser BEFORE Plan's aborting
// constructor can see them.
TEST(WireTest, RejectsHostilePlans) {
  const auto encode_then_parse = [](uint8_t query_type, uint32_t node_count,
                                    const std::vector<plan::PlanNode>& nodes) {
    // Hand-encode so we can lie about counts and indices.
    std::string payload;
    AppendPod<uint64_t>(&payload, 1);  // request_id
    AppendPod<uint64_t>(&payload, 0);  // tenant
    AppendPod<int32_t>(&payload, 0);   // concurrent
    AppendPod<uint64_t>(&payload, 0);  // tick
    AppendPod<uint8_t>(&payload, query_type);
    AppendPod<uint32_t>(&payload, node_count);
    for (const plan::PlanNode& node : nodes) {
      AppendPod<uint8_t>(&payload, static_cast<uint8_t>(node.op));
      AppendPod<double>(&payload, node.estimated_cost);
      AppendPod<double>(&payload, node.estimated_cardinality);
      AppendPod<double>(&payload, node.tuple_width);
      AppendPod<uint8_t>(&payload, static_cast<uint8_t>(node.s3_format));
      AppendPod<double>(&payload, node.table_rows);
      AppendPod<uint32_t>(&payload,
                          static_cast<uint32_t>(node.children.size()));
      for (const int32_t child : node.children) {
        AppendPod<int32_t>(&payload, child);
      }
    }
    PredictRequest parsed;
    return ParsePredictRequest(payload, &parsed);
  };

  plan::PlanNode leaf;
  leaf.op = plan::OperatorType::kSeqScanLocal;

  // Sanity: the encoding itself is correct.
  EXPECT_TRUE(encode_then_parse(0, 1, {leaf}));

  // Zero nodes; node count lying high (allocation guard: the payload ends
  // long before 1<<15 nodes, so the parser must not trust the count).
  EXPECT_FALSE(encode_then_parse(0, 0, {}));
  EXPECT_FALSE(encode_then_parse(0, 1u << 15, {leaf}));
  // Node count beyond the hard cap.
  EXPECT_FALSE(encode_then_parse(0, kMaxWirePlanNodes + 1, {}));

  // Out-of-range enums.
  EXPECT_FALSE(encode_then_parse(200, 1, {leaf}));  // query_type.
  plan::PlanNode bad_op = leaf;
  bad_op.op = static_cast<plan::OperatorType>(250);
  EXPECT_FALSE(encode_then_parse(0, 1, {bad_op}));
  plan::PlanNode bad_format = leaf;
  bad_format.s3_format = static_cast<plan::S3Format>(99);
  EXPECT_FALSE(encode_then_parse(0, 1, {bad_format}));

  // Structural violations: self-child, backward edge, out-of-range child,
  // two parents for one node.
  plan::PlanNode self_child = leaf;
  self_child.children = {0};
  EXPECT_FALSE(encode_then_parse(0, 1, {self_child}));

  plan::PlanNode root = leaf;
  root.children = {1};
  plan::PlanNode backward = leaf;
  backward.children = {0};
  EXPECT_FALSE(encode_then_parse(0, 2, {root, backward}));

  plan::PlanNode dangling = leaf;
  dangling.children = {5};
  EXPECT_FALSE(encode_then_parse(0, 1, {dangling}));

  plan::PlanNode twice = leaf;
  twice.children = {1, 1};
  EXPECT_FALSE(encode_then_parse(0, 2, {twice, leaf}));

  // An orphan (node 1 has no parent).
  EXPECT_FALSE(encode_then_parse(0, 2, {leaf, leaf}));
}

// Optimizer estimates are validated once, in the BuildWirePlan gate both
// codecs share: NaN, infinite and negative node numerics are malformed, as
// is a non-finite observed exec time.
TEST(WireTest, RejectsNonFiniteAndNegativeNumerics) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const plan::Plan good = MakeWirePlan(1.0);
  for (int field = 0; field < 4; ++field) {
    for (const double bad : {std::nan(""), kInf, -kInf, -5.0}) {
      std::vector<plan::PlanNode> nodes = good.nodes();
      double* const fields[] = {
          &nodes[1].estimated_cost, &nodes[1].estimated_cardinality,
          &nodes[1].tuple_width, &nodes[1].table_rows};
      *fields[field] = bad;
      plan::Plan built;
      EXPECT_FALSE(BuildWirePlan(0, nodes, &built)) << field << " " << bad;

      *fields[field] = kEstimateMarker;
      PredictRequest request;
      request.plan = plan::Plan(good.query_type(), nodes);
      const std::string payload = WithMarkedEstimate(request, bad);
      PredictRequest parsed;
      EXPECT_FALSE(ParsePredictRequest(payload, &parsed))
          << field << " " << bad;
    }
  }
  // The JSON decoder reaches the same gate.
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  EXPECT_FALSE(ParseJsonRequest(
      R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
      R"({"query_type":0,"nodes":[{"op":0,"cost":-5,"card":1,)"
      R"("width":8,"s3":1,"rows":10}]}})",
      &is_predict, &predict, &observe, &error));

  ObserveRequest request;
  request.plan = good;
  for (const double bad : {kInf, -kInf}) {
    request.exec_seconds = bad;
    std::string payload;
    AppendObserveRequest(&payload, request);
    ObserveRequest parsed;
    EXPECT_FALSE(ParseObserveRequest(payload, &parsed)) << bad;
  }
}

TEST(WireJsonTest, ParsesPredictAndObserveLines) {
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  ASSERT_TRUE(ParseJsonRequest(
      R"({"type":"predict","id":9,"tenant":1,"concurrent":4,"tick":12,)"
      R"("plan":{"query_type":0,"nodes":[)"
      R"({"op":3,"cost":100.5,"card":50,"width":24,"s3":0,"rows":0,)"
      R"("children":[1,2]},)"
      R"({"op":0,"cost":1,"card":10,"width":16,"s3":1,"rows":1000},)"
      R"({"op":1,"cost":2,"card":3,"width":8,"s3":2,"rows":500}]}})",
      &is_predict, &predict, &observe, &error))
      << error;
  EXPECT_TRUE(is_predict);
  EXPECT_EQ(predict.request_id, 9u);
  EXPECT_EQ(predict.tenant, 1u);
  EXPECT_EQ(predict.concurrent_queries, 4);
  EXPECT_EQ(predict.tick, 12u);
  ASSERT_EQ(predict.plan.node_count(), 3);
  EXPECT_EQ(predict.plan.node(0).op, plan::OperatorType::kHashJoinLocal);
  EXPECT_EQ(predict.plan.node(0).children, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(predict.plan.node(1).s3_format, plan::S3Format::kLocal);

  ASSERT_TRUE(ParseJsonRequest(
      R"({"type":"observe","tenant":0,"concurrent":0,"exec_seconds":1.5,)"
      R"("plan":{"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
      R"("width":8,"s3":1,"rows":10}]}})",
      &is_predict, &predict, &observe, &error))
      << error;
  EXPECT_FALSE(is_predict);
  EXPECT_EQ(observe.exec_seconds, 1.5);
  EXPECT_EQ(observe.request_id, 0u);  // "id" is optional.
}

TEST(WireJsonTest, RejectsBadLines) {
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  const auto rejects = [&](std::string_view line) {
    error.clear();
    const bool ok =
        ParseJsonRequest(line, &is_predict, &predict, &observe, &error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty()) << line;
  };
  rejects("not json at all");
  rejects(R"({"type":"frobnicate","tenant":0,"concurrent":0})");
  rejects(R"({"type":"predict","concurrent":0,"plan":{"query_type":0,)"
          R"("nodes":[{"op":0,"cost":1,"card":1,"width":8}]}})");  // No tenant.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0})");  // No plan.
  // Structural violation: child before parent.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,"width":8,)"
          R"("s3":1,"rows":10,"children":[0]}]}})");
  // Out-of-range enum.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":200,"cost":1,"card":1,)"
          R"("width":8,"s3":1,"rows":10}]}})");
  // A node without the full field set (no "rows") is malformed: the six
  // node fields are required, never defaulted.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
          R"("width":8,"s3":1}]}})");
  // Negative exec_seconds.
  rejects(R"({"type":"observe","tenant":0,"concurrent":0,)"
          R"("exec_seconds":-1,"plan":{"query_type":0,"nodes":[)"
          R"({"op":0,"cost":1,"card":1,"width":8,"s3":1,"rows":10}]}})");
  // Tenant id beyond 2^53 (not exactly representable as double).
  rejects(R"({"type":"predict","tenant":1e300,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
          R"("width":8,"s3":1,"rows":10}]}})");
}

// ---- Server integration -------------------------------------------------

// Two identical fleets (one served over the socket, one driven in-process)
// plus a tiny trained global model so cold predictions escalate to kGlobal
// and vary per plan — a constant-default fleet would make the bit-for-bit
// parity checks vacuous.
class ServerFixture {
 public:
  ServerFixture() {
    fleet::FleetConfig fleet_config;
    fleet_config.num_instances = 1;
    fleet_config.workload.num_queries = 200;
    fleet::FleetGenerator generator(fleet_config);
    instances_ = generator.GenerateFleet();
    std::vector<global::GlobalExample> examples;
    for (const auto& event : instances_[0].trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instances_[0].config, event.concurrent_queries,
          event.exec_seconds));
    }
    global::GlobalModelConfig global_config;
    global_config.hidden_dim = 16;
    global_config.num_layers = 2;
    global_config.head_hidden = {16};
    global_config.epochs = 2;
    global_model_ = std::make_unique<global::GlobalModel>(
        global::GlobalModel::Train(examples, global_config));

    served_ = std::make_unique<fleet_serve::FleetService>(DeterministicFleet());
    twin_ = std::make_unique<fleet_serve::FleetService>(DeterministicFleet());
    for (fleet_serve::TenantId tenant = 0; tenant < 2; ++tenant) {
      served_->RegisterTenant(
          tenant, {global_model_.get(), &instances_[0].config});
      twin_->RegisterTenant(
          tenant, {global_model_.get(), &instances_[0].config});
    }
  }

  void Start(const ServerConfig& config, const ServerOptions& options = {}) {
    server_ = std::make_unique<Server>(served_.get(), config, options);
  }

  std::unique_ptr<Client> Connect() {
    std::string error;
    auto client = Client::Connect("127.0.0.1", server_->port(), &error);
    EXPECT_NE(client, nullptr) << error;
    return client;
  }

  // Plans drawn from the generated trace: realistic shapes, all distinct.
  plan::Plan TracePlan(size_t i) const {
    return instances_[0].trace[i % instances_[0].trace.size()].plan;
  }

  core::Prediction TwinPredict(uint64_t tenant, const plan::Plan& plan,
                               int32_t concurrent, uint64_t tick) {
    return twin_->Predict(
        tenant, core::MakeQueryContext(plan, concurrent, tick));
  }

  std::vector<fleet::InstanceTrace> instances_;
  std::unique_ptr<global::GlobalModel> global_model_;
  std::unique_ptr<fleet_serve::FleetService> served_;
  std::unique_ptr<fleet_serve::FleetService> twin_;
  std::unique_ptr<Server> server_;
};

// One request in flight at a time: each predict is served inline on the
// worker that read it, and the reply equals the in-process twin's.
TEST(ServerTest, InlinePredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  for (uint64_t i = 0; i < 40; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = i % 2;
    request.concurrent_queries = static_cast<int32_t>(i % 5);
    request.tick = i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    EXPECT_EQ(response.request_id, i);
    const core::Prediction want = fx.TwinPredict(
        request.tenant, request.plan, request.concurrent_queries, i);
    EXPECT_EQ(response.seconds, want.seconds) << i;  // Bit-for-bit.
    EXPECT_EQ(response.source, want.source) << i;
    EXPECT_EQ(response.uncertainty_log_std, want.uncertainty_log_std) << i;
    // Cold fleets with a global model escalate everything.
    EXPECT_EQ(response.source, core::PredictionSource::kGlobal) << i;
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_in, 40u);
  EXPECT_EQ(stats.frames_out, 40u);
  EXPECT_EQ(stats.predictions, 40u);
  EXPECT_EQ(fx.server_->frame_latency().slot(Server::kLatencyPredict).count,
            40u);
}

// Client-side batches: two connections, one per tenant, each write their
// whole batch of predicts at once before reading a reply. The listener
// hands the connections to the two workers round-robin, so the batches are
// served concurrently, each on its own worker; every reply still equals the
// in-process twin's, because a tenant's predicts arrive on one connection
// in order.
TEST(ServerTest, BatchedPredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  fx.Start(config);
  constexpr uint64_t kTenants = 2;
  constexpr uint64_t kPerBatch = 24;
  std::vector<std::unique_ptr<Client>> clients;
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    clients.push_back(fx.Connect());
    ASSERT_NE(clients.back(), nullptr);
  }
  const auto request_for = [&](uint64_t tenant, uint64_t k) {
    PredictRequest request;
    request.request_id = tenant * kPerBatch + k;
    request.tenant = tenant;
    request.concurrent_queries = static_cast<int32_t>(k % 5);
    request.tick = k;
    request.plan = fx.TracePlan(tenant * kPerBatch + k);
    return request;
  };

  std::string error;
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    std::string batch;
    std::string payload;
    for (uint64_t k = 0; k < kPerBatch; ++k) {
      payload.clear();
      AppendPredictRequest(&payload, request_for(tenant, k));
      AppendMessage(&batch, MessageType::kPredictRequest, payload);
    }
    ASSERT_TRUE(clients[tenant]->SendRaw(batch, &error)) << error;
  }

  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    for (uint64_t k = 0; k < kPerBatch; ++k) {
      MessageType type;
      std::string reply;
      ASSERT_TRUE(clients[tenant]->ReceiveMessage(&type, &reply, &error))
          << error << " tenant " << tenant << " after " << k;
      ASSERT_EQ(type, MessageType::kPredictResponse) << tenant << "/" << k;
      PredictResponse response;
      ASSERT_TRUE(ParsePredictResponse(reply, &response));
      const PredictRequest request = request_for(tenant, k);
      EXPECT_EQ(response.request_id, request.request_id);
      const core::Prediction want =
          fx.TwinPredict(tenant, request.plan, request.concurrent_queries, k);
      EXPECT_EQ(response.seconds, want.seconds)  // Bit-for-bit.
          << tenant << "/" << k;
      EXPECT_EQ(response.source, want.source) << tenant << "/" << k;
      EXPECT_EQ(response.uncertainty_log_std, want.uncertainty_log_std)
          << tenant << "/" << k;
    }
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.connections_accepted, kTenants);
  EXPECT_EQ(stats.frames_in, kTenants * kPerBatch);
  EXPECT_EQ(stats.frames_out, kTenants * kPerBatch);
  EXPECT_EQ(stats.predictions, kTenants * kPerBatch);
}

// One write carries predicts for two tenants with observes mixed in. The
// worker serves them in the order it reads them, so the replies come back
// in request order, and every prediction equals an in-process twin fed the
// same requests in the same order (the observes turn later predicts of
// their plans into cache hits).
TEST(ServerTest, PipelinedPredictsAreAnsweredInRequestOrder) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  constexpr uint64_t kRequests = 72;
  const auto is_observe = [](uint64_t k) { return k % 8 == 3; };
  std::string bulk;
  std::string payload;
  for (uint64_t k = 0; k < kRequests; ++k) {
    payload.clear();
    if (is_observe(k)) {
      ObserveRequest request;
      request.request_id = k;
      request.tenant = k % 2;
      request.tick = k;
      request.exec_seconds = 1.0 + static_cast<double>(k) / 8.0;
      request.plan = fx.TracePlan(k + 2);  // Predicted two requests later.
      AppendObserveRequest(&payload, request);
      AppendMessage(&bulk, MessageType::kObserveRequest, payload);
    } else {
      PredictRequest request;
      request.request_id = k;
      request.tenant = k % 2;
      request.concurrent_queries = static_cast<int32_t>(k % 5);
      request.tick = k;
      request.plan = fx.TracePlan(k);
      AppendPredictRequest(&payload, request);
      AppendMessage(&bulk, MessageType::kPredictRequest, payload);
    }
  }
  std::string error;
  ASSERT_TRUE(client->SendRaw(bulk, &error)) << error;

  bool saw_cache_hit = false;
  for (uint64_t k = 0; k < kRequests; ++k) {
    MessageType type;
    std::string reply;
    ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error))
        << error << " after " << k;
    if (is_observe(k)) {
      ASSERT_EQ(type, MessageType::kObserveAck) << k;
      ObserveAck ack;
      ASSERT_TRUE(ParseObserveAck(reply, &ack));
      EXPECT_EQ(ack.request_id, k);
      fx.twin_->Observe(k % 2,
                        core::MakeQueryContext(fx.TracePlan(k + 2), 0, k),
                        1.0 + static_cast<double>(k) / 8.0);
      continue;
    }
    ASSERT_EQ(type, MessageType::kPredictResponse) << k;
    PredictResponse response;
    ASSERT_TRUE(ParsePredictResponse(reply, &response));
    EXPECT_EQ(response.request_id, k);
    const core::Prediction want = fx.TwinPredict(
        k % 2, fx.TracePlan(k), static_cast<int32_t>(k % 5), k);
    EXPECT_EQ(response.seconds, want.seconds) << k;  // Bit-for-bit.
    EXPECT_EQ(response.source, want.source) << k;
    saw_cache_hit |= response.source == core::PredictionSource::kCache;
  }
  EXPECT_TRUE(saw_cache_hit);
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.predictions + stats.observes, kRequests);
}

TEST(ServerTest, ObservesOverTheSocketMatchInProcessState) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  // Observe the same events on both fleets, then predictions must agree —
  // including kCache hits, which only exist if the observes applied.
  for (uint64_t i = 0; i < 30; ++i) {
    ObserveRequest request;
    request.request_id = i;
    request.tenant = 0;
    request.tick = i;
    request.exec_seconds = 0.5 + static_cast<double>(i % 7);
    request.plan = fx.TracePlan(i);
    ObserveAck ack;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Observe(request, &ack, &error_reply, &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    EXPECT_EQ(ack.request_id, i);
    fx.twin_->Observe(0, core::MakeQueryContext(request.plan, 0, i),
                      request.exec_seconds);
  }
  bool saw_cache_hit = false;
  for (uint64_t i = 0; i < 30; ++i) {
    PredictRequest request;
    request.request_id = 1000 + i;
    request.tenant = 0;
    request.tick = 1000 + i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    const core::Prediction want =
        fx.TwinPredict(0, request.plan, 0, 1000 + i);
    EXPECT_EQ(response.seconds, want.seconds) << i;
    EXPECT_EQ(response.source, want.source) << i;
    saw_cache_hit |= response.source == core::PredictionSource::kCache;
  }
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_EQ(fx.server_->Stats().observes, 30u);
}

// One line-JSON predict request for `plan`, newline included. A non-empty
// `padding` rides along as an extra string field, which the parser ignores.
std::string JsonPredictLine(const plan::Plan& plan, uint64_t id,
                            uint64_t tenant, int32_t concurrent,
                            uint64_t tick, const std::string& padding = "") {
  std::string line;
  JsonWriter w(&line);
  w.BeginObject();
  w.Key("type").String("predict");
  w.Key("id").UInt(id);
  w.Key("tenant").UInt(tenant);
  w.Key("concurrent").Int(concurrent);
  w.Key("tick").UInt(tick);
  if (!padding.empty()) w.Key("padding").String(padding);
  w.Key("plan").BeginObject();
  w.Key("query_type").UInt(static_cast<uint64_t>(plan.query_type()));
  w.Key("nodes").BeginArray();
  for (const plan::PlanNode& node : plan.nodes()) {
    w.BeginObject();
    w.Key("op").UInt(static_cast<uint64_t>(node.op));
    w.Key("cost").Double(node.estimated_cost);
    w.Key("card").Double(node.estimated_cardinality);
    w.Key("width").Double(node.tuple_width);
    w.Key("s3").UInt(static_cast<uint64_t>(node.s3_format));
    w.Key("rows").Double(node.table_rows);
    w.Key("children").BeginArray();
    for (const int32_t child : node.children) w.Int(child);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  line.push_back('\n');
  return line;
}

// Reads one newline-terminated line from `fd`; false on EOF or error.
bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c;
  while (true) {
    const ssize_t n = read(fd, &c, 1);
    if (n != 1) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

TEST(ServerTest, JsonModePredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  for (uint64_t i = 0; i < 10; ++i) {
    const plan::Plan plan = fx.TracePlan(i);
    const std::string line = JsonPredictLine(plan, i, 1, 2, i);
    std::string send_error;
    ASSERT_TRUE(client->SendRaw(line, &send_error)) << send_error;

    std::string reply;
    ASSERT_TRUE(ReadLine(client->fd(), &reply));
    JsonValue v;
    ASSERT_TRUE(ParseJson(reply, &v)) << reply;
    ASSERT_NE(v.Find("seconds"), nullptr) << reply;
    const core::Prediction want = fx.TwinPredict(1, plan, 2, i);
    // %.17g round-trips IEEE-754 exactly, so even through decimal text the
    // comparison is bit-for-bit.
    EXPECT_EQ(v.Find("seconds")->number, want.seconds) << reply;
    EXPECT_EQ(v.Find("source")->string_value,
              core::PredictionSourceName(want.source));
    EXPECT_DOUBLE_EQ(v.Find("id")->number, static_cast<double>(i));
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.json_lines_in, 10u);
  EXPECT_EQ(stats.json_lines_out, 10u);
  EXPECT_EQ(stats.frames_in, 0u);
}

// The JSON line cap holds for a line that arrives whole, newline and all,
// in one read: an error line with code "malformed", then the server closes.
TEST(ServerTest, CompleteJsonLineOverTheCapIsMalformedThenClosed) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  config.max_json_line_bytes = 512;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  const plan::Plan plan = MakeWirePlan(1.0);
  std::string send_error;
  std::string reply;
  JsonValue v;

  // A line under the cap is served.
  const std::string line = JsonPredictLine(plan, 1, 0, 0, 1);
  ASSERT_LE(line.size(), 512u);
  ASSERT_TRUE(client->SendRaw(line, &send_error)) << send_error;
  ASSERT_TRUE(ReadLine(client->fd(), &reply));
  ASSERT_TRUE(ParseJson(reply, &v)) << reply;
  EXPECT_NE(v.Find("seconds"), nullptr) << reply;

  const std::string padded =
      JsonPredictLine(plan, 2, 0, 0, 2, std::string(600, 'x'));
  ASSERT_GT(padded.size(), 512u + 1);
  ASSERT_TRUE(client->SendRaw(padded, &send_error)) << send_error;
  ASSERT_TRUE(ReadLine(client->fd(), &reply));
  ASSERT_TRUE(ParseJson(reply, &v)) << reply;
  ASSERT_NE(v.Find("code"), nullptr) << reply;
  EXPECT_EQ(v.Find("code")->string_value, "malformed") << reply;
  EXPECT_FALSE(ReadLine(client->fd(), &reply));  // EOF.
}

TEST(ServerTest, UnknownTenantGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  PredictRequest request;
  request.request_id = 5;
  request.tenant = 999;  // Never registered.
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  ErrorReply error_reply;
  std::string transport_error;
  ASSERT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kError)
      << transport_error;
  EXPECT_EQ(error_reply.code, WireError::kUnknownTenant);
  EXPECT_EQ(error_reply.request_id, 5u);

  // The connection is still usable for a valid request.
  request.tenant = 0;
  ASSERT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kOk)
      << transport_error;
  EXPECT_EQ(fx.server_->Stats().errors_by_code[static_cast<size_t>(
                WireError::kUnknownTenant)],
            1u);
}

TEST(ServerTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  std::string send_error;
  ASSERT_TRUE(client->SendMessage(MessageType::kPredictRequest,
                                  "definitely not a predict request",
                                  &send_error))
      << send_error;
  MessageType type;
  std::string payload;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &send_error))
      << send_error;
  ASSERT_EQ(type, MessageType::kError);
  ErrorReply error_reply;
  ASSERT_TRUE(ParseErrorReply(payload, &error_reply));
  EXPECT_EQ(error_reply.code, WireError::kMalformed);

  // Still alive: a well-formed request succeeds.
  PredictRequest request;
  request.tenant = 0;
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  std::string transport_error;
  EXPECT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kOk)
      << transport_error;
}

// A peer cannot feed a tenant non-finite numbers: a NaN-cost predict and a
// +inf observe both get kMalformed, the connection survives, and the
// tenant's prediction for that plan stays finite (the observe never reached
// its cache).
TEST(ServerTest, NonFiniteNumericsGetMalformedAndPredictionsStayFinite) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  ErrorReply error_reply;
  std::string transport_error;

  const plan::Plan plan = fx.TracePlan(3);
  std::vector<plan::PlanNode> nodes = plan.nodes();
  nodes[0].estimated_cost = kEstimateMarker;
  PredictRequest bad_predict;
  bad_predict.plan = plan::Plan(plan.query_type(), nodes);
  ASSERT_TRUE(client->SendMessage(MessageType::kPredictRequest,
                                  WithMarkedEstimate(bad_predict, std::nan("")),
                                  &transport_error))
      << transport_error;
  MessageType type;
  std::string payload;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &transport_error))
      << transport_error;
  ASSERT_EQ(type, MessageType::kError);
  ASSERT_TRUE(ParseErrorReply(payload, &error_reply));
  EXPECT_EQ(error_reply.code, WireError::kMalformed);

  ObserveRequest bad_observe;
  bad_observe.exec_seconds = std::numeric_limits<double>::infinity();
  bad_observe.plan = plan;
  ObserveAck ack;
  ASSERT_EQ(client->Observe(bad_observe, &ack, &error_reply,
                            &transport_error),
            Client::RpcStatus::kError)
      << transport_error;
  EXPECT_EQ(error_reply.code, WireError::kMalformed);

  PredictRequest request;
  request.plan = plan;
  PredictResponse response;
  ASSERT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kOk)
      << transport_error;
  EXPECT_TRUE(std::isfinite(response.seconds));
  EXPECT_NE(response.source, core::PredictionSource::kCache);
  EXPECT_EQ(fx.server_->Stats().observes, 0u);
}

TEST(ServerTest, CorruptFrameGetsBadFrameReplyThenClose) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  // A frame-sized blob with a wrong magic: envelope-level corruption.
  std::string garbage(64, '\xee');
  std::string send_error;
  ASSERT_TRUE(client->SendRaw(garbage, &send_error)) << send_error;

  MessageType type;
  std::string payload;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &send_error))
      << send_error;
  ASSERT_EQ(type, MessageType::kError);
  ErrorReply error_reply;
  ASSERT_TRUE(ParseErrorReply(payload, &error_reply));
  EXPECT_EQ(error_reply.code, WireError::kBadFrame);

  // After the error reply the server closes the connection: EOF.
  EXPECT_FALSE(client->ReceiveMessage(&type, &payload, &send_error));
}

TEST(ServerTest, GracefulShutdownDrainsQueuedRequests) {
  // Request 0 goes to a cold tenant whose stack registers its metrics on
  // `registry` during activation. The test holds the registry's lock inside
  // a blocked RenderText callback, so the worker parks in that activation
  // with request 0 while requests 1-4 queue behind it on the same
  // connection. Shutdown lets the worker finish request 0 and refuses the
  // rest. The parked tenant is configured exactly like tenant 0, so its
  // answer matches the twin's tenant 0 bit-for-bit.
  obs::MetricsRegistry registry;
  ServerFixture fx;
  constexpr fleet_serve::TenantId kParked = 2;
  fx.served_->RegisterTenant(kParked, {fx.global_model_.get(),
                                       &fx.instances_[0].config, &registry});
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  std::promise<void> rendering_promise;
  std::future<void> rendering = rendering_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  registry.RegisterGaugeCallback(&release, "test_hold_registry", [&] {
    rendering_promise.set_value();
    release.wait();
    return 0.0;
  });
  std::thread render([&] { registry.RenderText(); });
  ASSERT_EQ(rendering.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  constexpr uint64_t kRequests = 5;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string payload;
  for (uint64_t i = 0; i < kRequests; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = i == 0 ? kParked : 0;
    request.tick = i;
    request.plan = fx.TracePlan(i);
    payload.clear();
    AppendPredictRequest(&payload, request);
    std::string send_error;
    ASSERT_TRUE(client->SendMessage(MessageType::kPredictRequest, payload,
                                    &send_error))
        << send_error;
    // Request 0 must be read (the worker takes it and parks) before the
    // others arrive, so they wait in the socket behind it.
    while (i == 0 && fx.server_->Stats().frames_in < 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Shutdown blocks until the worker finishes request 0, so it runs on its
  // own thread. The listener closes only after the intake has stopped, so
  // once a connect is refused requests 1-4 can only be refused, and the
  // worker may be released.
  std::thread shutdown([&] { fx.server_->Shutdown(); });
  while (Client::Connect("127.0.0.1", fx.server_->port(), nullptr) !=
         nullptr) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release_promise.set_value();
  render.join();
  shutdown.join();
  registry.UnregisterAll(&release);

  // Request 0 is answered (bit-for-bit), each later request gets a
  // shutting_down error, then the shutdown frame, then EOF.
  MessageType type;
  std::string reply;
  std::string error;
  ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error)) << error;
  ASSERT_EQ(type, MessageType::kPredictResponse);
  PredictResponse response;
  ASSERT_TRUE(ParsePredictResponse(reply, &response));
  EXPECT_EQ(response.request_id, 0u);
  EXPECT_EQ(response.seconds, fx.TwinPredict(0, fx.TracePlan(0), 0, 0).seconds);
  for (uint64_t i = 1; i < kRequests; ++i) {
    ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error)) << error;
    ASSERT_EQ(type, MessageType::kError) << i;
    ErrorReply error_reply;
    ASSERT_TRUE(ParseErrorReply(reply, &error_reply));
    EXPECT_EQ(error_reply.request_id, i);
    EXPECT_EQ(error_reply.code, WireError::kShuttingDown);
  }
  ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error)) << error;
  EXPECT_EQ(type, MessageType::kShutdown);
  EXPECT_FALSE(client->ReceiveMessage(&type, &reply, &error));

  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.predictions, 1u);
  EXPECT_EQ(stats.errors_by_code[static_cast<size_t>(WireError::kShuttingDown)],
            kRequests - 1);
}

TEST(ServerTest, ShutdownAnnouncesToIdleConnections) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  // Let the server finish registering the connection before shutting down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server_->Stats().connections_active < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fx.server_->Shutdown();
  MessageType type;
  std::string payload;
  std::string error;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &error)) << error;
  EXPECT_EQ(type, MessageType::kShutdown);
  EXPECT_FALSE(client->ReceiveMessage(&type, &payload, &error));
}

TEST(ServerTest, RejectsConnectionsBeyondCapacity) {
  ServerFixture fx;
  ServerConfig config;
  config.max_connections = 1;
  fx.Start(config);
  auto first = fx.Connect();
  ASSERT_NE(first, nullptr);
  // Make sure the first connection is fully registered.
  PredictRequest request;
  request.tenant = 0;
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  ErrorReply error_reply;
  std::string transport_error;
  ASSERT_EQ(first->Predict(request, &response, &error_reply,
                           &transport_error),
            Client::RpcStatus::kOk);

  // The second connection is closed at accept; the TCP connect itself
  // succeeds, so the signal is EOF on first read.
  std::string error;
  auto second = Client::Connect("127.0.0.1", fx.server_->port(), &error);
  ASSERT_NE(second, nullptr) << error;
  MessageType type;
  std::string payload;
  EXPECT_FALSE(second->ReceiveMessage(&type, &payload, &error));
  EXPECT_GE(fx.server_->Stats().connections_rejected, 1u);
}

TEST(ServerTest, ExposesMetricsOnTheRegistry) {
  obs::MetricsRegistry registry;
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config, {.metrics = &registry});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  for (uint64_t i = 0; i < 8; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = 0;
    request.tick = i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk);
  }
  const std::string text = registry.RenderText();
  std::string problem;
  EXPECT_TRUE(obs::ValidateTextExposition(text, &problem)) << problem;
  EXPECT_NE(text.find("stage_net_frames_in_total"), std::string::npos);
  EXPECT_NE(text.find("\nstage_net_predictions_total 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("stage_net_connections_active"), std::string::npos);
  EXPECT_NE(text.find("stage_net_frame_latency_nanos"), std::string::npos);

  // The server unregisters its callbacks on destruction.
  fx.server_.reset();
  EXPECT_TRUE(obs::ValidateTextExposition(registry.RenderText(), &problem))
      << problem;
  EXPECT_EQ(registry.RenderText().find("stage_net_"), std::string::npos);
}

TEST(ServerTest, LoadgenCompletesAgainstTheServer) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  fx.Start(config);

  std::vector<plan::Plan> plans;
  for (size_t i = 0; i < 32; ++i) plans.push_back(fx.TracePlan(i));
  LoadgenConfig loadgen;
  loadgen.port = fx.server_->port();
  loadgen.connections = 8;
  loadgen.pipeline = 4;
  loadgen.requests_per_connection = 25;
  loadgen.tenants = 2;
  LoadgenResult result;
  std::string error;
  ASSERT_TRUE(RunLoadgen(loadgen, plans, &result, &error)) << error;
  EXPECT_EQ(result.completed, 8u * 25u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.p99_ms, 0.0);
  EXPECT_GE(result.p99_ms, result.p50_ms);
  // Cold tenants + global model: every prediction escalates.
  EXPECT_EQ(result.source_counts[static_cast<size_t>(
                core::PredictionSource::kGlobal)],
            8u * 25u);
}

// Multi-connection concurrent stress for the TSan lane (tools/check.sh
// runs --gtest_filter=NetStressTest.* under STAGE_SANITIZE=thread):
// concurrent clients mixing predicts and observes, plus a graceful
// shutdown racing the tail of the traffic.
TEST(NetStressTest, ConcurrentClientsAndGracefulShutdown) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  fx.Start(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string error;
      auto client = Client::Connect("127.0.0.1", fx.server_->port(), &error);
      if (client == nullptr) return;
      for (int i = 0; i < kPerThread; ++i) {
        ErrorReply error_reply;
        std::string transport_error;
        if (i % 5 == 4) {
          ObserveRequest request;
          request.request_id = static_cast<uint64_t>(i);
          request.tenant = static_cast<uint64_t>(t % 2);
          request.tick = static_cast<uint64_t>(i);
          request.exec_seconds = 1.0;
          request.plan = fx.TracePlan(static_cast<size_t>(t * 1000 + i));
          ObserveAck ack;
          if (client->Observe(request, &ack, &error_reply,
                              &transport_error) != Client::RpcStatus::kOk) {
            return;  // Shutdown reached us mid-stream; that's legal.
          }
        } else {
          PredictRequest request;
          request.request_id = static_cast<uint64_t>(i);
          request.tenant = static_cast<uint64_t>(t % 2);
          request.tick = static_cast<uint64_t>(i);
          request.plan = fx.TracePlan(static_cast<size_t>(t * 1000 + i));
          PredictResponse response;
          if (client->Predict(request, &response, &error_reply,
                              &transport_error) != Client::RpcStatus::kOk) {
            return;
          }
        }
        answered.fetch_add(1);
      }
    });
  }
  // Shut down while the tail of the traffic may still be in flight.
  while (answered.load() < kThreads * kPerThread / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fx.server_->Shutdown();
  for (std::thread& thread : threads) thread.join();
  // Conservation: every answered request was answered exactly once, and
  // the counters agree with what the clients saw.
  const ServerStats stats = fx.server_->Stats();
  EXPECT_GE(stats.predictions + stats.observes,
            static_cast<uint64_t>(answered.load()));
  EXPECT_EQ(stats.connections_active, 0u);
}

}  // namespace
}  // namespace stage::net
