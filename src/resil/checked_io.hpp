// Versioned, CRC32C-checksummed, atomically-written binary files.
//
// The legacy io::serialize format (raw header + arrays) trusts its inputs:
// a flipped byte in a count field used to trigger an unbounded resize, and
// a torn write left a half-file that parsed as garbage. This layer fixes
// the failure model for everything the pipeline persists:
//
//   * every file carries a magic, a format version, a payload-kind tag, the
//     exact payload size, and a CRC32C over header and payload — corruption
//     anywhere is detected at load with a typed IoError;
//   * writes go to `<path>.tmp.<pid>` and are renamed into place, so
//     readers never observe a partially-written file and a crash mid-write
//     leaves the previous version intact;
//   * loads are strictly size-bounded: the declared payload size must match
//     the actual file size before anything is allocated, and every array
//     count inside the payload is validated against the bytes remaining —
//     a corrupt header can never cause a multi-gigabyte allocation.
//
// BlobWriter/BlobReader provide the typed payload encoding; the matrix,
// vector, and checkpoint serializers are built on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace memxct::resil {

/// Format version; bumped on incompatible payload-layout changes. Loads
/// reject files written by a different version with IoError (the cache
/// caller treats that as stale and rebuilds). v2 added a compressed-CSR
/// operator payload (since deleted) and the per-FMA byte-accounting split;
/// v1 files are rebuilt on first use.
inline constexpr std::uint32_t kCheckedFormatVersion = 2;

/// Payload kind tag — a file of one kind loaded as another is rejected.
enum class BlobKind : std::uint32_t {
  CsrMatrix = 1,
  Vector = 2,
  Checkpoint = 3,
  // 4 stays unused: it tagged the deleted compressed-CSR cache payload, and
  // an old cache file of that kind must never parse as a later kind.
  TunedChoice = 5,  ///< Autotuner decision record (src/tune, `.tune` files).
};

/// Accumulates a typed payload in memory. Scalars are written raw
/// (little-endian hosts only, like the legacy format); arrays are prefixed
/// with a 64-bit element count.
class BlobWriter {
 public:
  template <class T>
  void put_scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }

  template <class T>
  void put_array(std::span<const T> a) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_scalar<std::uint64_t>(a.size());
    append(a.data(), a.size() * sizeof(T));
  }

  [[nodiscard]] std::span<const std::byte> payload() const noexcept {
    return buf_;
  }

 private:
  void append(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  std::vector<std::byte> buf_;
};

/// Reads a payload back with strict bounds: every scalar and array read
/// checks the bytes remaining before touching memory, so a corrupted count
/// yields IoError, never an over-read or an unbounded allocation.
class BlobReader {
 public:
  BlobReader(std::span<const std::byte> data, std::string path)
      : data_(data), path_(std::move(path)) {}

  template <class T>
  [[nodiscard]] T get_scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T), "scalar");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a count-prefixed array into `out` (any vector-like with
  /// resize/data). The count is validated against the remaining payload
  /// bytes *before* the resize.
  template <class Vec>
  void get_array(Vec& out) {
    using T = typename Vec::value_type;
    const auto count = get_scalar<std::uint64_t>();
    if (count > remaining() / sizeof(T))
      throw IoError(path_ + ": array count " + std::to_string(count) +
                    " exceeds remaining payload (" +
                    std::to_string(remaining()) + " bytes)");
    out.resize(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(out.data(), data_.data() + pos_,
                  static_cast<std::size_t>(count) * sizeof(T));
      pos_ += static_cast<std::size_t>(count) * sizeof(T);
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  /// Call after the last field: trailing bytes mean a layout mismatch.
  void expect_end() const {
    if (pos_ != data_.size())
      throw IoError(path_ + ": " + std::to_string(remaining()) +
                    " unexpected trailing payload bytes");
  }

 private:
  void require(std::size_t bytes, const char* what) const {
    if (bytes > remaining())
      throw IoError(path_ + ": truncated payload reading " +
                    std::string(what));
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::string path_;
};

/// Writes header + payload to `path` atomically (tmp file + fsync + rename).
/// Throws IoError on any I/O failure; the destination is never left torn.
void write_checked(const std::string& path, BlobKind kind,
                   std::span<const std::byte> payload);

/// Reads and fully validates a checked file: magic, version, kind, declared
/// payload size vs actual file size (checked before allocating), and the
/// CRC32C over header and payload. `max_payload_bytes` caps the allocation
/// regardless of what the header claims. Throws IoError on any mismatch.
[[nodiscard]] std::vector<std::byte> read_checked(
    const std::string& path, BlobKind kind,
    std::uint64_t max_payload_bytes = std::uint64_t{1} << 40);

[[nodiscard]] bool file_exists(const std::string& path) noexcept;

/// CSR matrix in the checked format (the preprocessing cache payload).
void save_csr_checked(const std::string& path, const sparse::CsrMatrix& m);
[[nodiscard]] sparse::CsrMatrix load_csr_checked(const std::string& path);

/// Float vector in the checked format.
void save_vector_checked(const std::string& path, std::span<const real> data);
[[nodiscard]] AlignedVector<real> load_vector_checked(const std::string& path);

}  // namespace memxct::resil
