#include "resil/checked_io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <memory>

#include "resil/crc32c.hpp"

namespace memxct::resil {

namespace {

constexpr char kMagic[8] = {'M', 'X', 'C', 'H', 'K', 'E', 'D', '1'};

// Fixed 32-byte header. header_crc covers the preceding 28 bytes, so a
// corrupted size field is caught before it is trusted for anything.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t kind;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;
};
static_assert(sizeof(FileHeader) == 32);

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

[[nodiscard]] std::int64_t file_size_of(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    throw IoError("cannot stat " + path);
  return static_cast<std::int64_t>(st.st_size);
}

}  // namespace

bool file_exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void write_checked(const std::string& path, BlobKind kind,
                   std::span<const std::byte> payload) {
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kCheckedFormatVersion;
  h.kind = static_cast<std::uint32_t>(kind);
  h.payload_bytes = payload.size();
  h.payload_crc = crc32c(payload.data(), payload.size());
  h.header_crc = crc32c(&h, offsetof(FileHeader, header_crc));

  // Write to a process-unique sibling, flush to stable storage, then rename
  // into place: concurrent readers see either the old file or the new one,
  // never a prefix.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr) throw IoError("cannot create " + tmp);
    if (std::fwrite(&h, sizeof(h), 1, f.get()) != 1 ||
        (!payload.empty() &&
         std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
             payload.size()) ||
        std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0) {
      std::remove(tmp.c_str());
      throw IoError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::byte> read_checked(const std::string& path, BlobKind kind,
                                    std::uint64_t max_payload_bytes) {
  const std::int64_t size = file_size_of(path);
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) throw IoError("cannot open " + path);
  FileHeader h{};
  if (size < static_cast<std::int64_t>(sizeof(h)) ||
      std::fread(&h, sizeof(h), 1, f.get()) != 1)
    throw IoError(path + ": truncated header");
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    throw IoError(path + ": not a MemXCT checked file (bad magic)");
  if (h.header_crc != crc32c(&h, offsetof(FileHeader, header_crc)))
    throw IoError(path + ": header checksum mismatch");
  if (h.version != kCheckedFormatVersion)
    throw IoError(path + ": format version " + std::to_string(h.version) +
                  " (expected " + std::to_string(kCheckedFormatVersion) +
                  ")");
  if (h.kind != static_cast<std::uint32_t>(kind))
    throw IoError(path + ": payload kind " + std::to_string(h.kind) +
                  " (expected " +
                  std::to_string(static_cast<std::uint32_t>(kind)) + ")");
  // Size bound before any allocation: declared payload must match the file
  // exactly and respect the caller's cap.
  if (h.payload_bytes > max_payload_bytes)
    throw IoError(path + ": declared payload " +
                  std::to_string(h.payload_bytes) + " bytes exceeds cap " +
                  std::to_string(max_payload_bytes));
  if (static_cast<std::uint64_t>(size) - sizeof(h) != h.payload_bytes)
    throw IoError(path + ": file size " + std::to_string(size) +
                  " does not match declared payload " +
                  std::to_string(h.payload_bytes) + " + header");

  std::vector<std::byte> payload(static_cast<std::size_t>(h.payload_bytes));
  if (!payload.empty() &&
      std::fread(payload.data(), 1, payload.size(), f.get()) !=
          payload.size())
    throw IoError(path + ": truncated payload");
  if (h.payload_crc != crc32c(payload.data(), payload.size()))
    throw IoError(path + ": payload checksum mismatch");
  return payload;
}

void save_csr_checked(const std::string& path, const sparse::CsrMatrix& m) {
  m.validate();
  BlobWriter w;
  w.put_scalar<std::int64_t>(m.num_rows);
  w.put_scalar<std::int64_t>(m.num_cols);
  w.put_array<nnz_t>(m.displ);
  w.put_array<idx_t>(m.ind);
  w.put_array<real>(m.val);
  write_checked(path, BlobKind::CsrMatrix, w.payload());
}

sparse::CsrMatrix load_csr_checked(const std::string& path) {
  const auto payload = read_checked(path, BlobKind::CsrMatrix);
  BlobReader r(payload, path);
  sparse::CsrMatrix m;
  m.num_rows = static_cast<idx_t>(r.get_scalar<std::int64_t>());
  m.num_cols = static_cast<idx_t>(r.get_scalar<std::int64_t>());
  if (m.num_rows < 0 || m.num_cols < 0)
    throw IoError(path + ": negative matrix dimensions");
  r.get_array(m.displ);
  r.get_array(m.ind);
  r.get_array(m.val);
  r.expect_end();
  if (m.displ.size() != static_cast<std::size_t>(m.num_rows) + 1 ||
      m.ind.size() != m.val.size())
    throw IoError(path + ": inconsistent CSR array sizes");
  m.validate();  // structural invariants (monotone displ, column bounds)
  return m;
}

void save_vector_checked(const std::string& path,
                         std::span<const real> data) {
  BlobWriter w;
  w.put_array<real>(data);
  write_checked(path, BlobKind::Vector, w.payload());
}

AlignedVector<real> load_vector_checked(const std::string& path) {
  const auto payload = read_checked(path, BlobKind::Vector);
  BlobReader r(payload, path);
  AlignedVector<real> data;
  r.get_array(data);
  r.expect_end();
  return data;
}

}  // namespace memxct::resil
