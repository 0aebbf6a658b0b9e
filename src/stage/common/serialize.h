#ifndef STAGE_COMMON_SERIALIZE_H_
#define STAGE_COMMON_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace stage {

// Minimal binary (de)serialization helpers for model checkpoints. The
// format is raw little-endian PODs behind a per-model magic+version header;
// files are not portable across architectures with different endianness,
// which is fine for the "train the global model offline, ship it to every
// instance" deployment the paper describes (§4.4).

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(out, values.size());
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
}

// Bytes left between the current read position and the end of a seekable
// stream; nullopt when the stream cannot be probed (unseekable or already
// failed). Used to reject corrupt size fields before allocating.
std::optional<uint64_t> RemainingBytes(std::istream& in);

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* values,
                uint64_t max_elements = (1ull << 32)) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  if (!ReadPod(in, &size) || size > max_elements) return false;
  if (size > 0) {
    // A corrupt size field must fail here, not via a multi-GB resize that
    // only errors after the read comes up short.
    const std::optional<uint64_t> remaining = RemainingBytes(in);
    if (remaining && size > *remaining / sizeof(T)) return false;
  }
  values->resize(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(values->data()),
            static_cast<std::streamsize>(size * sizeof(T)));
  }
  return static_cast<bool>(in);
}

// Writes/checks a 4-byte magic plus a version number.
void WriteHeader(std::ostream& out, uint32_t magic, uint32_t version);
bool ReadHeader(std::istream& in, uint32_t magic, uint32_t expected_version);

}  // namespace stage

#endif  // STAGE_COMMON_SERIALIZE_H_
