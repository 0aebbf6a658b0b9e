#ifndef STAGE_FLEET_SERVE_FLEET_SNAPSHOT_H_
#define STAGE_FLEET_SERVE_FLEET_SNAPSHOT_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stage/ckpt/snapshot_file.h"

namespace stage::fleet_serve {

// Fleet tenants are keyed by the same integer ids stage/fleet assigns to
// synthesized instances.
using TenantId = uint64_t;

// The indexed multi-tenant snapshot ("SFLT"): a fleet checkpoint whose
// per-tenant payloads are length-prefixed at offsets recorded in a
// CRC-checked index, so cold activation of one tenant is a header read, an
// index probe, and ONE seek+read of that tenant's payload — never a
// whole-fleet deserialize. Layout:
//
//   u32 magic   "SFLT"
//   u32 version (currently 1)
//   u32 kind    (SnapshotKind::kFleetService — the shared ckpt registry)
//   u64 tenant_count
//   u32 index_crc32            (over the index entry bytes)
//   tenant_count × { u64 tenant_id, u64 offset, u64 size, u32 payload_crc32 }
//   per-tenant payloads, each:  u64 size  +  size bytes
//
// `offset` addresses the payload's length prefix from the start of the
// file; `size`/`payload_crc32` describe the payload bytes (a TenantStack
// "SSRV" stream), so the prefix and the index cross-check each other.
// Files are published tmp-then-rename through ckpt::PublishFile, the same
// crash-safety contract as every other snapshot file.

struct FleetSnapshotEntry {
  TenantId tenant_id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t payload_crc = 0;
};

// Writes a complete fleet snapshot. `payloads` are (tenant, SSRV-stream
// bytes) pairs; index order follows input order. Returns false (filling
// `error` when non-null) without publishing on any failure.
bool WriteFleetSnapshotFile(
    const std::string& path,
    const std::vector<std::pair<TenantId, std::string>>& payloads,
    std::string* error = nullptr);

// Random-access reader over a published fleet snapshot. Construction via
// Open reads and verifies ONLY the header and index (O(tenants) index
// bytes, no payloads); ReadTenant then seeks and reads one payload.
class FleetSnapshotReader {
 public:
  // Opens and verifies the header + index. Returns false on any structural
  // problem (bad magic/version/kind, index checksum mismatch, truncation).
  bool Open(const std::string& path, std::string* error = nullptr);

  bool is_open() const { return file_.is_open(); }
  const std::vector<FleetSnapshotEntry>& entries() const { return entries_; }

  // True when the index lists `tenant`.
  bool Contains(TenantId tenant) const;

  // Seeks to `tenant`'s payload and reads exactly it, verifying the length
  // prefix and CRC against the index. Returns false for unknown tenants or
  // corrupt payloads. Not thread-safe (one seek cursor); FleetService
  // serializes activations per snapshot reader.
  bool ReadTenant(TenantId tenant, std::string* payload,
                  std::string* error = nullptr);

 private:
  std::ifstream file_;
  std::vector<FleetSnapshotEntry> entries_;
};

}  // namespace stage::fleet_serve

#endif  // STAGE_FLEET_SERVE_FLEET_SNAPSHOT_H_
