// Property/fuzz tests for the snapshot decoders: a deterministic-seed
// corpus of mutated `SSNP` envelopes — truncation at EVERY byte boundary,
// random bit flips, and length-field inflation — driven through the
// public Load*Snapshot entry points. The properties:
//
//   1. Never crash (the whole binary also runs under ASan/TSan via
//      tools/check.sh).
//   2. Never leak partial state: a failed load leaves the target exactly
//      as it was (verified by predicting a probe workload before/after).
//   3. Either succeed bit-for-bit (predictions identical to the source of
//      the snapshot) or fail with a clean `false` + error message.
//
// This generalizes the stride-64 CorruptionSuite in ckpt_test.cc down to
// every byte boundary and up through all three snapshot kinds.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "stage/calib/conformal.h"
#include "stage/ckpt/checkpoint.h"
#include "stage/ckpt/snapshot_file.h"
#include "stage/common/rng.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/local/local_model.h"

namespace stage::ckpt {
namespace {

// Tiny-but-real state so the snapshots stay a few KB and every-byte
// truncation remains fast.
core::StagePredictorConfig TinyStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 2;
  config.local.ensemble.member.num_rounds = 6;
  config.local.ensemble.member.max_depth = 2;
  config.cache.capacity = 12;
  config.pool.capacity = 24;
  config.min_train_size = 12;
  config.retrain_interval = 40;
  return config;
}

fleet_serve::TenantStackConfig TinyService() {
  fleet_serve::TenantStackConfig config;
  config.predictor = TinyStage();
  return config;
}

calib::ConformalConfig TinyConformal() {
  calib::ConformalConfig config;
  config.window_capacity = 64;
  config.min_window = 16;
  config.refresh_interval = 8;
  return config;
}

// The recalibrator's fingerprint is its own Save stream: capacity, ring,
// head, counters, and the published scale, byte for byte.
std::string RecalibratorState(const calib::ConformalRecalibrator& r) {
  std::ostringstream out;
  r.Save(out);
  return out.str();
}

std::vector<core::QueryContext> ProbeContexts() {
  static const std::vector<core::QueryContext>* contexts = [] {
    fleet::FleetConfig config;
    config.num_instances = 1;
    config.workload.num_queries = 120;
    config.seed = 4242;
    fleet::FleetGenerator generator(config);
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);
    auto* out = new std::vector<core::QueryContext>();
    for (const fleet::QueryEvent& event : instance.trace) {
      out->push_back(core::MakeQueryContext(
          event.plan, event.concurrent_queries,
          static_cast<uint64_t>(event.arrival_ms)));
    }
    return out;
  }();
  return *contexts;
}

std::vector<double> ExecTimes() {
  Rng rng(99);
  std::vector<double> out;
  for (size_t i = 0; i < ProbeContexts().size(); ++i) {
    out.push_back(rng.NextLogNormal(0.3, 0.9));
  }
  return out;
}

// Predictions over the probe set: the state fingerprint used to prove
// "unchanged" and "bit-for-bit restored".
template <typename Predictor>
std::vector<double> Fingerprint(const Predictor& predictor) {
  std::vector<double> out;
  for (const core::QueryContext& context : ProbeContexts()) {
    out.push_back(predictor.Predict(context).seconds);
  }
  return out;
}

// ctest runs every case in its own process, in parallel, and cases share
// file names (the fixture's snapshots, TryLoadService's scratch file), so
// each process keeps its files in a directory of its own, which
// TearDownTestSuite removes.
std::string ScratchDir() {
  static const std::string dir = ::testing::TempDir() + "stage_snapshot_fuzz_" +
                                 std::to_string(::getpid()) + "/";
  return dir;
}

std::string TempPath(const std::string& name) { return ScratchDir() + name; }

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The fuzz harness fixture: builds one exercised tenant stack + predictor
// + local model, snapshots each, and exposes TryLoad* helpers
// that assert the no-partial-state property on every failed load.
class SnapshotFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::filesystem::create_directories(ScratchDir());
    service_ = new fleet_serve::TenantStack(TinyService());
    predictor_ = new core::StagePredictor(TinyStage());
    const auto contexts = ProbeContexts();
    const auto exec_times = ExecTimes();
    for (size_t i = 0; i < contexts.size(); ++i) {
      service_->Predict(contexts[i]);
      service_->Observe(contexts[i], exec_times[i]);
      predictor_->Predict(contexts[i]);
      predictor_->Observe(contexts[i], exec_times[i]);
    }
    ASSERT_GT(service_->trainings(), 0);
    ASSERT_NE(predictor_->local_model_snapshot(), nullptr);

    recalibrator_ = new calib::ConformalRecalibrator(TinyConformal());
    {
      Rng rng(2468);
      for (int i = 0; i < 200; ++i) {
        recalibrator_->Observe(std::abs(rng.NextGaussian()) * 1.4);
      }
    }
    ASSERT_GT(recalibrator_->refreshes(), 0u);
    ASSERT_NE(recalibrator_->scale(), 1.0);

    service_bytes_ = new std::string();
    predictor_bytes_ = new std::string();
    model_bytes_ = new std::string();
    recalibrator_bytes_ = new std::string();
    const std::string service_path = TempPath("fuzz_service.snap");
    const std::string predictor_path = TempPath("fuzz_predictor.snap");
    const std::string model_path = TempPath("fuzz_model.snap");
    const std::string recalibrator_path = TempPath("fuzz_recal.snap");
    ASSERT_TRUE(SaveServiceSnapshot(*service_, service_path));
    ASSERT_TRUE(SaveServiceSnapshot(*predictor_, predictor_path));
    ASSERT_TRUE(
        SaveLocalModelSnapshot(*predictor_->local_model_snapshot(), model_path));
    ASSERT_TRUE(SaveRecalibratorSnapshot(*recalibrator_, recalibrator_path));
    *service_bytes_ = ReadFileBytes(service_path);
    *predictor_bytes_ = ReadFileBytes(predictor_path);
    *model_bytes_ = ReadFileBytes(model_path);
    *recalibrator_bytes_ = ReadFileBytes(recalibrator_path);
    ASSERT_GT(service_bytes_->size(), 24u);  // More than the envelope header.
    ASSERT_GT(recalibrator_bytes_->size(), 24u);
  }

  static void TearDownTestSuite() {
    delete service_;
    delete predictor_;
    delete recalibrator_;
    delete service_bytes_;
    delete predictor_bytes_;
    delete model_bytes_;
    delete recalibrator_bytes_;
    service_ = nullptr;
    predictor_ = nullptr;
    recalibrator_ = nullptr;
    service_bytes_ = predictor_bytes_ = model_bytes_ = nullptr;
    recalibrator_bytes_ = nullptr;
    std::filesystem::remove_all(ScratchDir());
  }

  // Loads mutated service-snapshot bytes into a scratch service that
  // already holds state, returning the decoder's verdict. On failure the
  // scratch state must be untouched; on success it must match the
  // snapshotted service bit-for-bit.
  static bool TryLoadService(const std::string& bytes,
                             const std::string& label) {
    static fleet_serve::TenantStack scratch(TinyService());
    static const std::vector<double> before = Fingerprint(scratch);
    const std::string path = TempPath("fuzz_mut_service.snap");
    WriteFileBytes(path, bytes);
    std::string error;
    const bool ok = LoadServiceSnapshot(&scratch, path, &error);
    if (ok) {
      EXPECT_EQ(Fingerprint(scratch), Fingerprint(*service_)) << label;
      // Re-arm the scratch for subsequent failed-load checks.
      const std::string clean = TempPath("fuzz_clean_service.snap");
      WriteFileBytes(clean, *service_bytes_);
      EXPECT_TRUE(LoadServiceSnapshot(&scratch, clean));
    } else {
      EXPECT_FALSE(error.empty()) << label;
    }
    return ok;
  }

  static fleet_serve::TenantStack* service_;
  static core::StagePredictor* predictor_;
  static calib::ConformalRecalibrator* recalibrator_;
  static std::string* service_bytes_;
  static std::string* predictor_bytes_;
  static std::string* model_bytes_;
  static std::string* recalibrator_bytes_;
};

fleet_serve::TenantStack* SnapshotFuzzTest::service_ = nullptr;
core::StagePredictor* SnapshotFuzzTest::predictor_ = nullptr;
calib::ConformalRecalibrator* SnapshotFuzzTest::recalibrator_ = nullptr;
std::string* SnapshotFuzzTest::service_bytes_ = nullptr;
std::string* SnapshotFuzzTest::predictor_bytes_ = nullptr;
std::string* SnapshotFuzzTest::model_bytes_ = nullptr;
std::string* SnapshotFuzzTest::recalibrator_bytes_ = nullptr;

// -- Property 1+2: truncation at EVERY byte boundary fails cleanly and
//    leaves the target untouched.

TEST_F(SnapshotFuzzTest, ServiceTruncationAtEveryByteBoundary) {
  fleet_serve::TenantStack scratch(TinyService());
  const std::vector<double> before = Fingerprint(scratch);
  const std::string path = TempPath("fuzz_trunc_service.snap");
  for (size_t cut = 0; cut < service_bytes_->size(); ++cut) {
    WriteFileBytes(path, service_bytes_->substr(0, cut));
    std::string error;
    ASSERT_FALSE(LoadServiceSnapshot(&scratch, path, &error))
        << "truncation at byte " << cut << " was accepted";
    ASSERT_FALSE(error.empty()) << "no error at byte " << cut;
    // Spot-check the untouched property (every boundary would be O(n^2)).
    if (cut % 97 == 0) {
      ASSERT_EQ(Fingerprint(scratch), before) << "state leak at byte " << cut;
    }
  }
  // Full check once after the sweep: still pristine, still loadable.
  ASSERT_EQ(Fingerprint(scratch), before);
  WriteFileBytes(path, *service_bytes_);
  ASSERT_TRUE(LoadServiceSnapshot(&scratch, path));
  EXPECT_EQ(Fingerprint(scratch), Fingerprint(*service_));
}

TEST_F(SnapshotFuzzTest, PredictorTruncationAtEveryByteBoundary) {
  core::StagePredictor scratch(TinyStage());
  const std::vector<double> before = Fingerprint(scratch);
  const std::string path = TempPath("fuzz_trunc_predictor.snap");
  for (size_t cut = 0; cut < predictor_bytes_->size(); ++cut) {
    WriteFileBytes(path, predictor_bytes_->substr(0, cut));
    ASSERT_FALSE(LoadServiceSnapshot(&scratch, path))
        << "truncation at byte " << cut << " was accepted";
    if (cut % 97 == 0) {
      ASSERT_EQ(Fingerprint(scratch), before) << "state leak at byte " << cut;
    }
  }
  ASSERT_EQ(Fingerprint(scratch), before);
  WriteFileBytes(path, *predictor_bytes_);
  ASSERT_TRUE(LoadServiceSnapshot(&scratch, path));
  EXPECT_EQ(Fingerprint(scratch), Fingerprint(*predictor_));
}

TEST_F(SnapshotFuzzTest, LocalModelTruncationAtEveryByteBoundary) {
  local::LocalModel scratch(TinyStage().local);
  const std::string path = TempPath("fuzz_trunc_model.snap");
  for (size_t cut = 0; cut < model_bytes_->size(); ++cut) {
    WriteFileBytes(path, model_bytes_->substr(0, cut));
    ASSERT_FALSE(LoadLocalModelSnapshot(&scratch, path))
        << "truncation at byte " << cut << " was accepted";
    if (cut % 97 == 0) {
      ASSERT_FALSE(scratch.trained()) << "partial model at byte " << cut;
    }
  }
  ASSERT_FALSE(scratch.trained());
  WriteFileBytes(path, *model_bytes_);
  ASSERT_TRUE(LoadLocalModelSnapshot(&scratch, path));
  EXPECT_TRUE(scratch.trained());
}

TEST_F(SnapshotFuzzTest, RecalibratorTruncationAtEveryByteBoundary) {
  calib::ConformalRecalibrator scratch(TinyConformal());
  // Pre-load the scratch with its own distinct state so "untouched"
  // is distinguishable from "reset".
  {
    Rng rng(1357);
    for (int i = 0; i < 80; ++i) {
      scratch.Observe(std::abs(rng.NextGaussian()) * 0.7);
    }
  }
  const std::string before = RecalibratorState(scratch);
  const std::string path = TempPath("fuzz_trunc_recal.snap");
  // The payload is small, so the untouched property is checked at EVERY
  // boundary, not spot-checked: Load must be fully transactional.
  for (size_t cut = 0; cut < recalibrator_bytes_->size(); ++cut) {
    WriteFileBytes(path, recalibrator_bytes_->substr(0, cut));
    std::string error;
    ASSERT_FALSE(LoadRecalibratorSnapshot(&scratch, path, &error))
        << "truncation at byte " << cut << " was accepted";
    ASSERT_FALSE(error.empty()) << "no error at byte " << cut;
    ASSERT_EQ(RecalibratorState(scratch), before)
        << "half-applied state at byte " << cut;
  }
  // The intact snapshot restores bit-for-bit.
  WriteFileBytes(path, *recalibrator_bytes_);
  ASSERT_TRUE(LoadRecalibratorSnapshot(&scratch, path));
  EXPECT_EQ(RecalibratorState(scratch), RecalibratorState(*recalibrator_));
  EXPECT_EQ(scratch.scale(), recalibrator_->scale());
}

TEST_F(SnapshotFuzzTest, RecalibratorRandomBitFlips) {
  calib::ConformalRecalibrator scratch(TinyConformal());
  const std::string before = RecalibratorState(scratch);
  const std::string path = TempPath("fuzz_flip_recal.snap");
  Rng rng(20260808);
  constexpr int kIterations = 400;
  int accepted = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string mutated = *recalibrator_bytes_;
    const int flips = 1 + static_cast<int>(rng.NextDouble() * 3);
    for (int f = 0; f < flips; ++f) {
      const size_t byte =
          static_cast<size_t>(rng.NextDouble() * mutated.size()) %
          mutated.size();
      const int bit = static_cast<int>(rng.NextDouble() * 8);
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    }
    if (mutated == *recalibrator_bytes_) continue;  // Flips cancelled out.
    WriteFileBytes(path, mutated);
    std::string error;
    if (LoadRecalibratorSnapshot(&scratch, path, &error)) {
      ++accepted;
    } else {
      EXPECT_FALSE(error.empty()) << "iteration " << iteration;
      EXPECT_EQ(RecalibratorState(scratch), before)
          << "half-applied state, iteration " << iteration;
    }
  }
  // The envelope CRC covers the whole payload: any flipped file that
  // differs from the original must be rejected.
  EXPECT_EQ(accepted, 0);
}

TEST_F(SnapshotFuzzTest, RecalibratorCapacityMismatchIsRejected) {
  calib::ConformalConfig other = TinyConformal();
  other.window_capacity = 128;
  calib::ConformalRecalibrator scratch(other);
  const std::string before = RecalibratorState(scratch);
  const std::string path = TempPath("fuzz_cap_recal.snap");
  WriteFileBytes(path, *recalibrator_bytes_);  // Valid, but capacity 64.
  std::string error;
  EXPECT_FALSE(LoadRecalibratorSnapshot(&scratch, path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(RecalibratorState(scratch), before);
}

// -- Property 3: random single/multi bit flips either fail cleanly or (if
//    they somehow slip past the CRC — they must not) restore bit-for-bit.

TEST_F(SnapshotFuzzTest, ServiceRandomBitFlips) {
  Rng rng(20240807);
  constexpr int kIterations = 400;
  int accepted = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string mutated = *service_bytes_;
    const int flips = 1 + static_cast<int>(rng.NextDouble() * 3);
    for (int f = 0; f < flips; ++f) {
      const size_t byte =
          static_cast<size_t>(rng.NextDouble() * mutated.size());
      const int bit = static_cast<int>(rng.NextDouble() * 8);
      mutated[byte % mutated.size()] =
          static_cast<char>(mutated[byte % mutated.size()] ^ (1 << bit));
    }
    if (mutated == *service_bytes_) continue;  // Flips cancelled out.
    if (TryLoadService(mutated, "bit flip iteration " +
                                    std::to_string(iteration))) {
      ++accepted;
    }
  }
  // The CRC covers the payload and the header fields are checked; a
  // mutated file that differs from the original must never be accepted.
  EXPECT_EQ(accepted, 0);
}

// -- Length-field inflation: a hostile payload_size must fail before any
//    unbounded allocation. Header layout: magic u32 | version u32 |
//    kind u32 | payload_size u64 at offset 12 | crc u32 | payload.

TEST_F(SnapshotFuzzTest, ServiceLengthFieldInflation) {
  constexpr size_t kSizeOffset = 12;
  const std::vector<uint64_t> hostile_sizes = {
      0,
      1,
      service_bytes_->size(),       // Larger than the actual payload.
      service_bytes_->size() - 24,  // Off-by-nothing sanity (actual size)...
      static_cast<uint64_t>(1) << 32,
      static_cast<uint64_t>(1) << 48,
      ~static_cast<uint64_t>(0),
  };
  const uint64_t actual_payload = service_bytes_->size() - 24;
  for (const uint64_t size : hostile_sizes) {
    std::string mutated = *service_bytes_;
    for (int b = 0; b < 8; ++b) {
      mutated[kSizeOffset + static_cast<size_t>(b)] =
          static_cast<char>((size >> (8 * b)) & 0xFF);
    }
    if (size == actual_payload) {
      // The true size round-trips: must load and match bit-for-bit.
      EXPECT_TRUE(
          TryLoadService(mutated, "true length " + std::to_string(size)));
    } else {
      EXPECT_FALSE(
          TryLoadService(mutated, "inflated length " + std::to_string(size)))
          << size;
    }
  }
}

// -- Kind confusion: a valid envelope of one kind must be rejected by the
//    loaders of every other kind.

TEST_F(SnapshotFuzzTest, KindConfusionIsRejected) {
  const std::string path = TempPath("fuzz_kind.snap");
  WriteFileBytes(path, *model_bytes_);  // A valid kLocalModel envelope.
  fleet_serve::TenantStack service_scratch(TinyService());
  core::StagePredictor predictor_scratch(TinyStage());
  calib::ConformalRecalibrator recalibrator_scratch(TinyConformal());
  std::string error;
  EXPECT_FALSE(LoadServiceSnapshot(&service_scratch, path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(LoadServiceSnapshot(&predictor_scratch, path));
  EXPECT_FALSE(LoadRecalibratorSnapshot(&recalibrator_scratch, path));

  // And the reverse direction: a valid recalibrator envelope must be
  // rejected by every other kind's loader.
  WriteFileBytes(path, *recalibrator_bytes_);
  EXPECT_FALSE(LoadServiceSnapshot(&service_scratch, path));
  EXPECT_FALSE(LoadServiceSnapshot(&predictor_scratch, path));
  local::LocalModel model_scratch(TinyStage().local);
  EXPECT_FALSE(LoadLocalModelSnapshot(&model_scratch, path));
}

}  // namespace
}  // namespace stage::ckpt
