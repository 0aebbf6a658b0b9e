#include "stage/common/serialize.h"

namespace stage {

std::optional<uint64_t> RemainingBytes(std::istream& in) {
  if (!in) return std::nullopt;
  const std::istream::pos_type current = in.tellg();
  if (current == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(current);
  if (end == std::istream::pos_type(-1) || !in || end < current) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(end - current);
}

void WriteHeader(std::ostream& out, uint32_t magic, uint32_t version) {
  WritePod(out, magic);
  WritePod(out, version);
}

bool ReadHeader(std::istream& in, uint32_t magic, uint32_t expected_version) {
  uint32_t file_magic = 0;
  uint32_t file_version = 0;
  if (!ReadPod(in, &file_magic) || !ReadPod(in, &file_version)) return false;
  return file_magic == magic && file_version == expected_version;
}

}  // namespace stage
