#include "io/serialize.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "common/error.hpp"

namespace memxct::io {

namespace {

constexpr char kCsrMagic[8] = {'M', 'X', 'C', 'S', 'R', '0', '0', '1'};
constexpr char kVecMagic[8] = {'M', 'X', 'V', 'E', 'C', '0', '0', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_or_throw(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  if (f == nullptr)
    throw InvalidArgument("cannot open " + path + " (mode " + mode + ")");
  return f;
}

template <class T>
void write_array(std::FILE* f, const T* data, std::size_t count,
                 const std::string& path) {
  if (count == 0) return;  // empty vectors have a null data() — UB in fwrite
  if (std::fwrite(data, sizeof(T), count, f) != count)
    throw InvalidArgument("short write to " + path);
}

template <class T>
void read_array(std::FILE* f, T* data, std::size_t count,
                const std::string& path) {
  if (count == 0) return;
  if (std::fread(data, sizeof(T), count, f) != count)
    throw InvalidArgument("short read from " + path);
}

/// Size of the already-open file (restores the read position).
std::int64_t file_size(std::FILE* f, const std::string& path) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0)
    throw InvalidArgument("cannot seek " + path);
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, pos, SEEK_SET) != 0)
    throw InvalidArgument("cannot seek " + path);
  return size;
}

/// Header counts are untrusted until proven consistent with the actual file
/// size: a corrupt count must yield InvalidArgument here, not a multi-GB
/// resize or std::bad_alloc. Counts are individually bounded (division, so
/// the products cannot overflow) and then the exact total is required.
class SizeBudget {
 public:
  SizeBudget(std::FILE* f, std::int64_t header_bytes, std::string path)
      : remaining_(file_size(f, path) - header_bytes), path_(std::move(path)) {
    if (remaining_ < 0)
      throw InvalidArgument(path_ + " is truncated (shorter than header)");
  }

  /// Claims `count` elements of size `elem_bytes`; throws if the file
  /// cannot hold them.
  template <class T>
  std::size_t claim(std::int64_t count) {
    if (count < 0 ||
        count > remaining_ / static_cast<std::int64_t>(sizeof(T)))
      throw InvalidArgument(path_ + ": header count " +
                            std::to_string(count) +
                            " exceeds file size (corrupt header)");
    remaining_ -= count * static_cast<std::int64_t>(sizeof(T));
    return static_cast<std::size_t>(count);
  }

  /// After all claims: leftover bytes mean a corrupt or foreign file.
  void expect_exhausted() const {
    if (remaining_ != 0)
      throw InvalidArgument(path_ + ": " + std::to_string(remaining_) +
                            " trailing bytes (corrupt header or file)");
  }

 private:
  std::int64_t remaining_;
  std::string path_;
};

}  // namespace

void save_csr(const std::string& path, const sparse::CsrMatrix& matrix) {
  matrix.validate();
  const auto f = open_or_throw(path, "wb");
  write_array(f.get(), kCsrMagic, sizeof(kCsrMagic), path);
  const std::int64_t header[3] = {matrix.num_rows, matrix.num_cols,
                                  matrix.nnz()};
  write_array(f.get(), header, 3, path);
  write_array(f.get(), matrix.displ.data(), matrix.displ.size(), path);
  write_array(f.get(), matrix.ind.data(), matrix.ind.size(), path);
  write_array(f.get(), matrix.val.data(), matrix.val.size(), path);
}

sparse::CsrMatrix load_csr(const std::string& path) {
  const auto f = open_or_throw(path, "rb");
  char magic[8];
  read_array(f.get(), magic, sizeof(magic), path);
  if (std::memcmp(magic, kCsrMagic, sizeof(magic)) != 0)
    throw InvalidArgument(path + " is not a MemXCT CSR file");
  std::int64_t header[3];
  read_array(f.get(), header, 3, path);
  MEMXCT_CHECK(header[0] >= 0 && header[1] >= 0 && header[2] >= 0);
  SizeBudget budget(f.get(), 8 + 3 * 8, path);
  sparse::CsrMatrix m;
  m.num_rows = static_cast<idx_t>(header[0]);
  m.num_cols = static_cast<idx_t>(header[1]);
  m.displ.resize(budget.claim<nnz_t>(header[0] + 1));
  m.ind.resize(budget.claim<idx_t>(header[2]));
  m.val.resize(budget.claim<real>(header[2]));
  budget.expect_exhausted();
  read_array(f.get(), m.displ.data(), m.displ.size(), path);
  read_array(f.get(), m.ind.data(), m.ind.size(), path);
  read_array(f.get(), m.val.data(), m.val.size(), path);
  m.validate();
  return m;
}

namespace {
constexpr char kBufMagic[8] = {'M', 'X', 'B', 'U', 'F', '0', '0', '1'};
}  // namespace

void save_buffered(const std::string& path,
                   const sparse::BufferedMatrix& matrix) {
  matrix.validate();
  if (matrix.storage != sparse::ValueStorage::Fp32)
    throw InvalidArgument("save_buffered: the file format holds fp32 values");
  const auto f = open_or_throw(path, "wb");
  write_array(f.get(), kBufMagic, sizeof(kBufMagic), path);
  const std::int64_t header[8] = {
      matrix.num_rows,
      matrix.num_cols,
      matrix.config.partsize,
      matrix.config.buffsize,
      static_cast<std::int64_t>(matrix.partdispl.size()),
      static_cast<std::int64_t>(matrix.stagenz.size()),
      static_cast<std::int64_t>(matrix.map.size()),
      static_cast<std::int64_t>(matrix.ind.size())};
  write_array(f.get(), header, 8, path);
  write_array(f.get(), matrix.partdispl.data(), matrix.partdispl.size(), path);
  write_array(f.get(), matrix.stagedispl.data(), matrix.stagedispl.size(),
              path);
  write_array(f.get(), matrix.stagenz.data(), matrix.stagenz.size(), path);
  write_array(f.get(), matrix.map.data(), matrix.map.size(), path);
  write_array(f.get(), matrix.displ.data(), matrix.displ.size(), path);
  write_array(f.get(), matrix.ind.data(), matrix.ind.size(), path);
  write_array(f.get(), matrix.val.data(), matrix.val.size(), path);
}

sparse::BufferedMatrix load_buffered(const std::string& path) {
  const auto f = open_or_throw(path, "rb");
  char magic[8];
  read_array(f.get(), magic, sizeof(magic), path);
  if (std::memcmp(magic, kBufMagic, sizeof(magic)) != 0)
    throw InvalidArgument(path + " is not a MemXCT buffered-matrix file");
  std::int64_t header[8];
  read_array(f.get(), header, 8, path);
  for (const auto v : header) MEMXCT_CHECK(v >= 0);
  SizeBudget budget(f.get(), 8 + 8 * 8, path);
  sparse::BufferedMatrix m;
  m.num_rows = static_cast<idx_t>(header[0]);
  m.num_cols = static_cast<idx_t>(header[1]);
  m.config.partsize = static_cast<idx_t>(header[2]);
  m.config.buffsize = static_cast<idx_t>(header[3]);
  m.partdispl.resize(budget.claim<idx_t>(header[4]));
  m.stagedispl.resize(budget.claim<nnz_t>(header[5] + 1));
  m.stagenz.resize(budget.claim<idx_t>(header[5]));
  m.map.resize(budget.claim<idx_t>(header[6]));
  // The displ count is derived from two header fields; guard the product
  // against overflow before claiming it.
  if (header[2] > 0 && header[5] > (std::numeric_limits<std::int64_t>::max() -
                                    1) / header[2])
    throw InvalidArgument(path + ": stage count overflows (corrupt header)");
  m.displ.resize(budget.claim<nnz_t>(header[5] * header[2] + 1));
  m.ind.resize(budget.claim<buf_idx_t>(header[7]));
  m.val.resize(budget.claim<real>(header[7]));
  budget.expect_exhausted();
  read_array(f.get(), m.partdispl.data(), m.partdispl.size(), path);
  read_array(f.get(), m.stagedispl.data(), m.stagedispl.size(), path);
  read_array(f.get(), m.stagenz.data(), m.stagenz.size(), path);
  read_array(f.get(), m.map.data(), m.map.size(), path);
  read_array(f.get(), m.displ.data(), m.displ.size(), path);
  read_array(f.get(), m.ind.data(), m.ind.size(), path);
  read_array(f.get(), m.val.data(), m.val.size(), path);
  // The file's bytes are untrusted: beyond the structure, every slot must
  // address its stage's staged footprint before a kernel reads through it.
  m.validate();
  m.validate_slots();
  return m;
}

void save_vector(const std::string& path, std::span<const real> data) {
  const auto f = open_or_throw(path, "wb");
  write_array(f.get(), kVecMagic, sizeof(kVecMagic), path);
  const std::int64_t count = static_cast<std::int64_t>(data.size());
  write_array(f.get(), &count, 1, path);
  write_array(f.get(), data.data(), data.size(), path);
}

AlignedVector<real> load_vector(const std::string& path) {
  const auto f = open_or_throw(path, "rb");
  char magic[8];
  read_array(f.get(), magic, sizeof(magic), path);
  if (std::memcmp(magic, kVecMagic, sizeof(magic)) != 0)
    throw InvalidArgument(path + " is not a MemXCT vector file");
  std::int64_t count = 0;
  read_array(f.get(), &count, 1, path);
  MEMXCT_CHECK(count >= 0);
  SizeBudget budget(f.get(), 8 + 8, path);
  AlignedVector<real> data(budget.claim<real>(count));
  budget.expect_exhausted();
  read_array(f.get(), data.data(), data.size(), path);
  return data;
}

}  // namespace memxct::io
