#include "stage/ckpt/snapshot_file.h"

#include <cstdio>
#include <fstream>

#include "stage/common/framing.h"

namespace stage::ckpt {

namespace {

constexpr uint32_t kEnvelopeMagic = 0x53534e50;  // "SSNP".
constexpr uint32_t kEnvelopeVersion = 1;

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::string_view SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kLocalModel:
      return "local-model";
    case SnapshotKind::kExecTimeCache:
      return "exec-time-cache";
    case SnapshotKind::kTrainingPool:
      return "training-pool";
    case SnapshotKind::kPredictionService:
      return "prediction-service";
    case SnapshotKind::kFleetService:
      return "fleet-service";
    case SnapshotKind::kConformalRecalibrator:
      return "conformal-recalibrator";
  }
  return "unknown";
}

std::optional<SnapshotKind> SnapshotKindFromName(std::string_view name) {
  for (const SnapshotKind kind : kAllSnapshotKinds) {
    if (SnapshotKindName(kind) == name) return kind;
  }
  return std::nullopt;
}

void WriteSnapshotStream(std::ostream& out, SnapshotKind kind,
                         std::string_view payload) {
  // The snapshot envelope is one instance of the shared frame vocabulary
  // (stage/common/framing.h); the byte layout is pinned by ckpt_test's
  // envelope-bytes regression test.
  WriteFrame(out, kEnvelopeMagic, kEnvelopeVersion,
             static_cast<uint32_t>(kind), payload);
}

bool ReadSnapshotStream(std::istream& in, SnapshotKind kind,
                        std::string* payload, std::string* error) {
  FrameHeader header;
  switch (ReadFrameHeader(in, kEnvelopeMagic, kEnvelopeVersion, &header)) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kBadMagic:
      SetError(error, "not a snapshot file (bad magic)");
      return false;
    case FrameStatus::kBadVersion:
      SetError(error, "unsupported snapshot envelope version");
      return false;
    default:
      SetError(error, "snapshot header truncated");
      return false;
  }
  // The kind check sits between header and payload so a mismatched file is
  // reported as such before any payload byte is read.
  if (header.type != static_cast<uint32_t>(kind)) {
    SetError(error, std::string("snapshot kind mismatch: expected ") +
                        std::string(SnapshotKindName(kind)));
    return false;
  }
  switch (ReadFramePayload(in, header, payload)) {
    case FrameStatus::kOk:
      return true;
    case FrameStatus::kCrcMismatch:
      SetError(error, "snapshot payload checksum mismatch");
      return false;
    default:
      SetError(error, "snapshot payload truncated");
      return false;
  }
}

bool PublishFile(const std::string& path,
                 const std::function<void(std::ostream&)>& write,
                 std::string* error) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, "cannot open " + tmp_path + " for writing");
      return false;
    }
    write(out);
    out.flush();
    if (!out) {
      SetError(error, "write to " + tmp_path + " failed");
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  // The atomic publication step: readers only ever see the old complete
  // file or the new complete file, never a torn one.
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SetError(error, "rename " + tmp_path + " -> " + path + " failed");
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

bool WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                       std::string_view payload, std::string* error) {
  return PublishFile(
      path,
      [&](std::ostream& out) { WriteSnapshotStream(out, kind, payload); },
      error);
}

bool ReadSnapshotFile(const std::string& path, SnapshotKind kind,
                      std::string* payload, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "cannot open " + path);
    return false;
  }
  return ReadSnapshotStream(in, kind, payload, error);
}

}  // namespace stage::ckpt
