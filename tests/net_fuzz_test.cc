// Property/fuzz tests for the wire-protocol decoders, in the style of
// snapshot_fuzz_test.cc: a deterministic-seed corpus of mutated frames —
// truncation at EVERY byte boundary, random bit flips, and length-field
// inflation — driven through both the raw parsers (no sockets, so the
// corpus can be large) and a live server over loopback. The properties:
//
//   1. Never crash (the binary also runs under ASan via tools/check.sh).
//   2. The server never half-applies: a corrupt frame yields a clean error
//      frame (kMalformed / kBadFrame) or a close — and the connection
//      counters stay conserved.
//   3. After the whole corpus, the server still answers a well-formed
//      predict, bit-for-bit equal to an in-process twin that saw none of
//      the garbage.
#include <sys/socket.h>
#include <sys/time.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/net/client.h"
#include "stage/net/server.h"
#include "stage/net/wire.h"

namespace stage::net {
namespace {

plan::Plan FuzzSeedPlan() {
  plan::PlanNode join;
  join.op = plan::OperatorType::kHashJoinDist;
  join.estimated_cost = 250.0;
  join.estimated_cardinality = 900.0;
  join.tuple_width = 32.0;
  join.children = {1, 2};
  plan::PlanNode scan;
  scan.op = plan::OperatorType::kSeqScanLocal;
  scan.estimated_cost = 40.0;
  scan.estimated_cardinality = 4000.0;
  scan.tuple_width = 16.0;
  scan.s3_format = plan::S3Format::kLocal;
  scan.table_rows = 1e6;
  plan::PlanNode sort = scan;
  sort.op = plan::OperatorType::kSort;
  sort.s3_format = plan::S3Format::kNotBaseTable;
  sort.table_rows = 0.0;
  return plan::Plan(plan::QueryType::kSelect, {join, scan, sort});
}

std::string SeedPredictPayload() {
  PredictRequest request;
  request.request_id = 7;
  request.tenant = 0;
  request.concurrent_queries = 3;
  request.tick = 11;
  request.plan = FuzzSeedPlan();
  std::string payload;
  AppendPredictRequest(&payload, request);
  return payload;
}

std::string SeedObservePayload() {
  ObserveRequest request;
  request.request_id = 8;
  request.tenant = 0;
  request.tick = 12;
  request.exec_seconds = 1.75;
  request.plan = FuzzSeedPlan();
  std::string payload;
  AppendObserveRequest(&payload, request);
  return payload;
}

// ---- Raw parsers: exhaustive truncation ---------------------------------

TEST(WireFuzzTest, PredictPayloadTruncatedAtEveryByte) {
  const std::string payload = SeedPredictPayload();
  for (size_t len = 0; len < payload.size(); ++len) {
    PredictRequest parsed;
    EXPECT_FALSE(ParsePredictRequest(
        std::string_view(payload).substr(0, len), &parsed))
        << "accepted a " << len << "-byte prefix";
  }
  PredictRequest parsed;
  EXPECT_TRUE(ParsePredictRequest(payload, &parsed));
}

TEST(WireFuzzTest, ObservePayloadTruncatedAtEveryByte) {
  const std::string payload = SeedObservePayload();
  for (size_t len = 0; len < payload.size(); ++len) {
    ObserveRequest parsed;
    EXPECT_FALSE(ParseObserveRequest(
        std::string_view(payload).substr(0, len), &parsed))
        << "accepted a " << len << "-byte prefix";
  }
  ObserveRequest parsed;
  EXPECT_TRUE(ParseObserveRequest(payload, &parsed));
}

TEST(WireFuzzTest, FrameTruncatedAtEveryByte) {
  std::string frame;
  AppendMessage(&frame, MessageType::kPredictRequest, SeedPredictPayload());
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameHeader header;
    std::string_view payload;
    size_t frame_bytes = 0;
    const FrameStatus status =
        DecodeFrame(std::string_view(frame).substr(0, len), kWireMagic,
                    kWireVersion, kMaxWirePayloadBytes, &header, &payload,
                    &frame_bytes);
    // A prefix of a valid frame is always just incomplete, never corrupt.
    EXPECT_EQ(status, FrameStatus::kNeedMore) << len;
  }
}

// ---- Raw parsers: deterministic random mutations ------------------------

TEST(WireFuzzTest, BitFlippedPayloadsNeverCrash) {
  const std::string seeds[] = {SeedPredictPayload(), SeedObservePayload()};
  Rng rng(20260808);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string mutant = seeds[iter % 2];
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      const size_t byte = rng.NextBelow(mutant.size());
      mutant[byte] = static_cast<char>(
          static_cast<uint8_t>(mutant[byte]) ^ (1u << rng.NextBelow(8)));
    }
    // Either parse may be handed either payload (a flipped frame-type
    // routes the bytes to the wrong parser): both must stay graceful.
    PredictRequest predict;
    ObserveRequest observe;
    ParsePredictRequest(mutant, &predict);
    ParseObserveRequest(mutant, &observe);
    // Parsed plans, if accepted, must still be structurally valid — the
    // Plan constructor would have aborted otherwise, but pin it anyway.
    if (!predict.plan.empty()) {
      EXPECT_TRUE(predict.plan.IsValidTree());
    }
  }
}

TEST(WireFuzzTest, LengthFieldInflationIsRejected) {
  std::string frame;
  AppendMessage(&frame, MessageType::kPredictRequest, SeedPredictPayload());
  // The payload_size field lives at offset 12 (magic, version, type).
  for (const uint64_t lie :
       {uint64_t{1}, uint64_t{1} << 20, kMaxWirePayloadBytes,
        kMaxWirePayloadBytes + 1, ~uint64_t{0}}) {
    std::string mutant = frame;
    std::memcpy(mutant.data() + 12, &lie, sizeof(lie));
    FrameHeader header;
    std::string_view payload;
    size_t frame_bytes = 0;
    const FrameStatus status =
        DecodeFrame(mutant, kWireMagic, kWireVersion, kMaxWirePayloadBytes,
                    &header, &payload, &frame_bytes);
    // A lying length never yields a valid frame: too large, truncated
    // (claims more than present), or CRC mismatch (claims less).
    EXPECT_NE(status, FrameStatus::kOk) << lie;
  }
}

TEST(WireFuzzTest, JsonRequestLinesNeverCrash) {
  const std::string seed =
      R"({"type":"predict","id":1,"tenant":0,"concurrent":2,"tick":3,)"
      R"("plan":{"query_type":0,"nodes":[{"op":4,"cost":250,"card":900,)"
      R"("width":32,"s3":0,"rows":0,"children":[1,2]},{"op":0,"cost":40,)"
      R"("card":4000,"width":16,"s3":1,"rows":1e6},{"op":11,"cost":40,)"
      R"("card":4000,"width":16,"s3":0,"rows":0}]}})";
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  ASSERT_TRUE(ParseJsonRequest(seed, &is_predict, &predict, &observe, &error))
      << error;

  // Every-byte truncation.
  for (size_t len = 0; len < seed.size(); ++len) {
    ParseJsonRequest(std::string_view(seed).substr(0, len), &is_predict,
                     &predict, &observe, &error);
  }
  // Random byte corruption (printable or not).
  Rng rng(424242);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string mutant = seed;
    const int edits = 1 + static_cast<int>(rng.NextBelow(6));
    for (int e = 0; e < edits; ++e) {
      mutant[rng.NextBelow(mutant.size())] =
          static_cast<char>(rng.NextBelow(256));
    }
    ParseJsonRequest(mutant, &is_predict, &predict, &observe, &error);
  }
}

// ---- Live server over loopback ------------------------------------------

class FuzzServer {
 public:
  FuzzServer() {
    fleet_serve::FleetServiceConfig config;
    config.stack.predictor.local.ensemble.num_members = 2;
    config.stack.predictor.local.ensemble.member.num_rounds = 10;
    config.stack.predictor.min_train_size = 10;
    config.async_retrain = false;
    served_ = std::make_unique<fleet_serve::FleetService>(config);
    twin_ = std::make_unique<fleet_serve::FleetService>(config);
    served_->RegisterTenant(0);
    twin_->RegisterTenant(0);
    ServerConfig server_config;
    server_config.num_workers = 1;
    server_ = std::make_unique<Server>(served_.get(), server_config);
  }

  std::unique_ptr<Client> Connect() {
    std::string error;
    auto client = Client::Connect("127.0.0.1", server_->port(), &error);
    EXPECT_NE(client, nullptr) << error;
    // A mutated length field can forge a payload size under the server's
    // cap but beyond the bytes we'll ever send; the server then parks the
    // connection in kNeedMore — correct framing behavior, but it would
    // block a timeout-less client read forever. A receive timeout turns
    // that park into a clean reconnect.
    if (client != nullptr) {
      timeval timeout{};
      timeout.tv_sec = 2;
      setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    }
    return client;
  }

  std::unique_ptr<fleet_serve::FleetService> served_;
  std::unique_ptr<fleet_serve::FleetService> twin_;
  std::unique_ptr<Server> server_;
};

// Sends `bytes`, then reads replies until the server either answers a
// well-formed probe predict (connection survived) or closes (reconnect).
// Either way the server must still be serving afterwards.
void FuzzOneBlob(FuzzServer& fx, std::unique_ptr<Client>& client,
                 const std::string& bytes) {
  std::string error;
  if (client == nullptr) client = fx.Connect();
  ASSERT_NE(client, nullptr);
  if (!client->SendRaw(bytes, &error)) {
    client.reset();  // Server already closed us mid-send; reconnect.
    return;
  }
  // Probe: a valid predict after the garbage. If the garbage killed the
  // connection we see EOF (ReceiveMessage fails) — never a crash, and the
  // next blob gets a fresh connection.
  PredictRequest probe;
  probe.request_id = 0xbeef;
  probe.tenant = 0;
  probe.plan = FuzzSeedPlan();
  std::string payload;
  AppendPredictRequest(&payload, probe);
  if (!client->SendMessage(MessageType::kPredictRequest, payload, &error)) {
    client.reset();
    return;
  }
  while (true) {
    MessageType type;
    std::string reply;
    if (!client->ReceiveMessage(&type, &reply, &error)) {
      client.reset();  // Closed (kBadFrame path) — acceptable outcome.
      return;
    }
    if (type == MessageType::kPredictResponse) {
      PredictResponse response;
      ASSERT_TRUE(ParsePredictResponse(reply, &response));
      if (response.request_id == 0xbeef) return;  // Survived cleanly.
    } else {
      ASSERT_EQ(type, MessageType::kError);
      ErrorReply error_reply;
      ASSERT_TRUE(ParseErrorReply(reply, &error_reply));
      // Garbage earns kMalformed or kBadFrame, nothing else.
      EXPECT_TRUE(error_reply.code == WireError::kMalformed ||
                  error_reply.code == WireError::kBadFrame)
          << static_cast<uint32_t>(error_reply.code);
    }
  }
}

TEST(ServerFuzzTest, SurvivesCorruptFramesWithoutHalfApplying) {
  FuzzServer fx;
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);

  std::string predict_frame;
  AppendMessage(&predict_frame, MessageType::kPredictRequest,
                SeedPredictPayload());
  std::string observe_frame;
  AppendMessage(&observe_frame, MessageType::kObserveRequest,
                SeedObservePayload());

  Rng rng(777001);
  // Sampled truncations + bit flips + type/length lies. Kept to a couple
  // hundred blobs so the suite stays fast; the exhaustive corpora above
  // cover the parsers without sockets.
  for (int iter = 0; iter < 200; ++iter) {
    const std::string& seed = (iter % 2 == 0) ? predict_frame : observe_frame;
    std::string mutant = seed;
    switch (iter % 4) {
      case 0:  // Truncation at a random boundary.
        mutant.resize(rng.NextBelow(mutant.size()));
        break;
      case 1: {  // Bit flips anywhere (header or payload).
        const int flips = 1 + static_cast<int>(rng.NextBelow(8));
        for (int f = 0; f < flips; ++f) {
          const size_t byte = rng.NextBelow(mutant.size());
          mutant[byte] = static_cast<char>(
              static_cast<uint8_t>(mutant[byte]) ^ (1u << rng.NextBelow(8)));
        }
        break;
      }
      case 2: {  // Length-field inflation.
        const uint64_t lie = rng.NextUint64();
        std::memcpy(mutant.data() + 12, &lie, sizeof(lie));
        break;
      }
      case 3:  // Pure garbage, no frame structure at all.
        mutant.assign(1 + rng.NextBelow(200), '\0');
        for (char& c : mutant) c = static_cast<char>(rng.NextBelow(256));
        // A leading '{' would flip the connection into JSON mode, which is
        // legal but makes the binary probe below meaningless; pin binary.
        if (mutant[0] == '{') mutant[0] = '}';
        break;
    }
    ASSERT_NO_FATAL_FAILURE(FuzzOneBlob(fx, client, mutant)) << iter;
  }

  // The server never half-applies: the observes hidden inside truncated /
  // flipped frames either fully applied (rare — a mutation that survives
  // CRC and parse) or not at all, and the server still predicts exactly
  // like a twin that applied the same count of *successful* observes.
  const uint64_t applied = fx.server_->Stats().observes;
  for (uint64_t i = 0; i < applied; ++i) {
    ObserveRequest request;
    request.tenant = 0;
    request.tick = 12;
    request.exec_seconds = 1.75;
    request.plan = FuzzSeedPlan();
    fx.twin_->Observe(0, core::MakeQueryContext(request.plan, 0, 12), 1.75);
  }

  std::string error;
  auto probe = fx.Connect();
  ASSERT_NE(probe, nullptr);
  PredictRequest request;
  request.request_id = 1;
  request.tenant = 0;
  request.plan = FuzzSeedPlan();
  PredictResponse response;
  ErrorReply error_reply;
  ASSERT_EQ(probe->Predict(request, &response, &error_reply, &error),
            Client::RpcStatus::kOk)
      << error;
  const core::Prediction want =
      fx.twin_->Predict(0, core::MakeQueryContext(request.plan, 0, 0));
  EXPECT_EQ(response.seconds, want.seconds);
  EXPECT_EQ(response.source, want.source);
}

}  // namespace
}  // namespace stage::net
