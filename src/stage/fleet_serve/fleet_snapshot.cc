#include "stage/fleet_serve/fleet_snapshot.h"

#include <optional>
#include <sstream>

#include "stage/common/crc32.h"
#include "stage/common/serialize.h"

namespace stage::fleet_serve {

namespace {

constexpr uint32_t kFleetMagic = 0x53464c54;  // "SFLT".
constexpr uint32_t kFleetVersion = 1;

// Fixed sizes written field-by-field (the structs are not written raw, so
// padding can never leak into the format).
constexpr uint64_t kHeaderBytes = 4 * 4 + 8;           // magic..count + crc.
constexpr uint64_t kIndexEntryBytes = 8 + 8 + 8 + 4;   // id, offset, size, crc.

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

void WriteIndexEntry(std::ostream& out, const FleetSnapshotEntry& entry) {
  WritePod<uint64_t>(out, entry.tenant_id);
  WritePod<uint64_t>(out, entry.offset);
  WritePod<uint64_t>(out, entry.size);
  WritePod<uint32_t>(out, entry.payload_crc);
}

bool ReadIndexEntry(std::istream& in, FleetSnapshotEntry* entry) {
  return ReadPod(in, &entry->tenant_id) && ReadPod(in, &entry->offset) &&
         ReadPod(in, &entry->size) && ReadPod(in, &entry->payload_crc);
}

}  // namespace

bool WriteFleetSnapshotFile(
    const std::string& path,
    const std::vector<std::pair<TenantId, std::string>>& payloads,
    std::string* error) {
  // Lay the index out first: payload offsets are fully determined by the
  // (fixed-size) header + index lengths and the running payload sizes.
  std::vector<FleetSnapshotEntry> entries;
  entries.reserve(payloads.size());
  uint64_t offset = kHeaderBytes + payloads.size() * kIndexEntryBytes;
  for (const auto& [tenant, payload] : payloads) {
    FleetSnapshotEntry entry;
    entry.tenant_id = tenant;
    entry.offset = offset;
    entry.size = payload.size();
    entry.payload_crc = Crc32(payload);
    entries.push_back(entry);
    offset += sizeof(uint64_t) + payload.size();  // Length prefix + bytes.
  }
  std::ostringstream index_stream;
  for (const FleetSnapshotEntry& entry : entries) {
    WriteIndexEntry(index_stream, entry);
  }
  const std::string index_bytes = index_stream.str();

  // Payloads stream straight into the file; the fleet is never buffered
  // whole in memory.
  return ckpt::PublishFile(
      path,
      [&](std::ostream& out) {
        WritePod(out, kFleetMagic);
        WritePod(out, kFleetVersion);
        WritePod(out,
                 static_cast<uint32_t>(ckpt::SnapshotKind::kFleetService));
        WritePod<uint64_t>(out, payloads.size());
        WritePod(out, Crc32(index_bytes));
        out.write(index_bytes.data(),
                  static_cast<std::streamsize>(index_bytes.size()));
        for (const auto& [tenant, payload] : payloads) {
          WritePod<uint64_t>(out, payload.size());
          out.write(payload.data(),
                    static_cast<std::streamsize>(payload.size()));
        }
      },
      error);
}

bool FleetSnapshotReader::Open(const std::string& path, std::string* error) {
  entries_.clear();
  file_.close();
  file_.clear();
  file_.open(path, std::ios::binary);
  if (!file_) {
    SetError(error, "cannot open " + path);
    return false;
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t count = 0;
  uint32_t index_crc = 0;
  if (!ReadPod(file_, &magic) || !ReadPod(file_, &version) ||
      !ReadPod(file_, &kind) || !ReadPod(file_, &count) ||
      !ReadPod(file_, &index_crc)) {
    SetError(error, "fleet snapshot header truncated");
    file_.close();
    return false;
  }
  if (magic != kFleetMagic) {
    SetError(error, "not a fleet snapshot (bad magic)");
    file_.close();
    return false;
  }
  if (version != kFleetVersion) {
    SetError(error, "unsupported fleet snapshot version");
    file_.close();
    return false;
  }
  if (kind != static_cast<uint32_t>(ckpt::SnapshotKind::kFleetService)) {
    SetError(error,
             std::string("fleet snapshot kind mismatch: expected ") +
                 std::string(ckpt::SnapshotKindName(
                     ckpt::SnapshotKind::kFleetService)));
    file_.close();
    return false;
  }
  // Bound the index size against the file before allocating.
  const std::optional<uint64_t> remaining = RemainingBytes(file_);
  if (remaining && count > *remaining / kIndexEntryBytes) {
    SetError(error, "fleet snapshot index truncated");
    file_.close();
    return false;
  }
  std::string index_bytes(count * kIndexEntryBytes, '\0');
  file_.read(index_bytes.data(),
             static_cast<std::streamsize>(index_bytes.size()));
  if (!file_) {
    SetError(error, "fleet snapshot index truncated");
    file_.close();
    return false;
  }
  if (Crc32(index_bytes) != index_crc) {
    SetError(error, "fleet snapshot index checksum mismatch");
    file_.close();
    return false;
  }
  std::istringstream index_stream(index_bytes);
  entries_.resize(count);
  for (FleetSnapshotEntry& entry : entries_) {
    if (!ReadIndexEntry(index_stream, &entry)) {
      SetError(error, "fleet snapshot index unparsable");
      entries_.clear();
      file_.close();
      return false;
    }
  }
  return true;
}

bool FleetSnapshotReader::Contains(TenantId tenant) const {
  for (const FleetSnapshotEntry& entry : entries_) {
    if (entry.tenant_id == tenant) return true;
  }
  return false;
}

bool FleetSnapshotReader::ReadTenant(TenantId tenant, std::string* payload,
                                     std::string* error) {
  if (!file_.is_open()) {
    SetError(error, "fleet snapshot not open");
    return false;
  }
  const FleetSnapshotEntry* entry = nullptr;
  for (const FleetSnapshotEntry& candidate : entries_) {
    if (candidate.tenant_id == tenant) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    SetError(error,
             "tenant " + std::to_string(tenant) + " not in fleet snapshot");
    return false;
  }
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(entry->offset));
  uint64_t prefixed_size = 0;
  if (!ReadPod(file_, &prefixed_size)) {
    SetError(error, "fleet snapshot payload prefix truncated");
    return false;
  }
  if (prefixed_size != entry->size) {
    SetError(error, "fleet snapshot payload length prefix disagrees with "
                    "index");
    return false;
  }
  // The index CRC vouches for the bytes, not for their sense: bound the
  // declared size against the file before allocating it.
  const std::optional<uint64_t> remaining = RemainingBytes(file_);
  if (remaining && entry->size > *remaining) {
    SetError(error, "fleet snapshot payload truncated");
    return false;
  }
  std::string bytes(entry->size, '\0');
  file_.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file_) {
    SetError(error, "fleet snapshot payload truncated");
    return false;
  }
  if (Crc32(bytes) != entry->payload_crc) {
    SetError(error, "fleet snapshot payload checksum mismatch");
    return false;
  }
  *payload = std::move(bytes);
  return true;
}

}  // namespace stage::fleet_serve
