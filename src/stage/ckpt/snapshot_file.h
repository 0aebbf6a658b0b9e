#ifndef STAGE_CKPT_SNAPSHOT_FILE_H_
#define STAGE_CKPT_SNAPSHOT_FILE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace stage::ckpt {

// What a snapshot file contains; written into the envelope header so a
// reader can never mistake, say, a bare local-model checkpoint for a full
// service snapshot. This is the single kind registry shared by the
// whole-payload envelope below and the indexed fleet envelope
// (stage/fleet_serve/fleet_snapshot.h): every on-disk format names its
// content through this enum, never through ad-hoc strings at call sites.
enum class SnapshotKind : uint32_t {
  kLocalModel = 1,
  kExecTimeCache = 2,
  kTrainingPool = 3,
  // 4 was the retired "SPRD" predictor stream; it stays reserved so an old
  // file can never be read as something else.
  //
  // A core::StagePredictor SaveState stream ("SSRV"); the name is kept so
  // existing files keep loading.
  kPredictionService = 5,
  // Multi-tenant fleet snapshot: an index of per-tenant payloads at known
  // offsets (each payload is a kPredictionService-format stream), so cold
  // activation can seek and deserialize one tenant without reading the
  // whole file.
  kFleetService = 6,
  // §4.8 online conformal recalibrator: the sliding residual window plus
  // its published sigma scale, so warm restart preserves calibration
  // bit-for-bit. (Predictor/service snapshots embed the same stream when
  // calibration is on; this kind covers the standalone file.)
  kConformalRecalibrator = 7,
};

// Every enumerator, for registry round-trip tests and tooling that has to
// enumerate the vocabulary. Keep in sync with the enum.
inline constexpr std::array<SnapshotKind, 6> kAllSnapshotKinds = {
    SnapshotKind::kLocalModel,        SnapshotKind::kExecTimeCache,
    SnapshotKind::kTrainingPool,      SnapshotKind::kPredictionService,
    SnapshotKind::kFleetService,      SnapshotKind::kConformalRecalibrator,
};

std::string_view SnapshotKindName(SnapshotKind kind);

// Inverse of SnapshotKindName; nullopt for unrecognized names. Names and
// kinds round-trip exactly (pinned by ckpt_test's registry test).
std::optional<SnapshotKind> SnapshotKindFromName(std::string_view name);

// The versioned, CRC-checked envelope around every checkpoint payload:
//
//   u32 magic   "SSNP"
//   u32 version (envelope format, currently 1)
//   u32 kind    (SnapshotKind)
//   u64 payload_size
//   u32 payload_crc32
//   payload bytes
//
// The CRC covers the payload bytes, so truncation (size mismatch) and bit
// rot (checksum mismatch) are both detected before any payload parser runs.
void WriteSnapshotStream(std::ostream& out, SnapshotKind kind,
                         std::string_view payload);

// Reads and verifies an envelope of the expected kind; on success `payload`
// holds the verified bytes. On failure returns false and, when `error` is
// non-null, a one-line description of the first problem.
bool ReadSnapshotStream(std::istream& in, SnapshotKind kind,
                        std::string* payload, std::string* error = nullptr);

// Crash-safe file publication: `write` streams the content into a fresh
// `path + ".tmp"`, which is flushed and atomically renamed over `path`. A
// writer killed mid-write leaves at most a stale *.tmp behind — the file
// previously published at `path` is never touched until the new one is
// fully on disk. Returns false (filling `error` when non-null) and removes
// the *.tmp when the open, a write, or the rename fails. Every snapshot
// format publishes through this one function.
bool PublishFile(const std::string& path,
                 const std::function<void(std::ostream&)>& write,
                 std::string* error = nullptr);

// Publishes the envelope around `payload` at `path` via PublishFile.
bool WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                       std::string_view payload, std::string* error = nullptr);

// Reads and verifies a published snapshot file (never the *.tmp).
bool ReadSnapshotFile(const std::string& path, SnapshotKind kind,
                      std::string* payload, std::string* error = nullptr);

}  // namespace stage::ckpt

#endif  // STAGE_CKPT_SNAPSHOT_FILE_H_
