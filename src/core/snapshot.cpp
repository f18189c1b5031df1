#include "core/snapshot.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace reco {

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t k = 0; k < size; ++k) {
    h ^= bytes[k];
    h *= kFnvPrime;
  }
  return h;
}

namespace {

void append_le(std::string& out, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

std::uint64_t read_le(const char* data, int bytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < bytes; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[b])) << (8 * b);
  }
  return v;
}

constexpr std::size_t kHeaderSize = 24;

}  // namespace

void SnapshotWriter::put_u32(std::uint32_t v) { append_le(payload_, v, 4); }
void SnapshotWriter::put_u64(std::uint64_t v) { append_le(payload_, v, 8); }
void SnapshotWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void SnapshotWriter::finish(std::ostream& out, std::uint32_t magic,
                            std::uint32_t version) const {
  std::string header;
  header.reserve(kHeaderSize);
  append_le(header, magic, 4);
  append_le(header, version, 4);
  append_le(header, payload_.size(), 8);
  append_le(header, fnv1a64(payload_.data(), payload_.size()), 8);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  if (!out) throw std::runtime_error("snapshot: write failed");
}

SnapshotReader::SnapshotReader(std::istream& in, std::uint32_t magic, std::uint32_t version,
                               std::string who)
    : who_(std::move(who)) {
  char header[kHeaderSize];
  in.read(header, kHeaderSize);
  if (in.gcount() != static_cast<std::streamsize>(kHeaderSize)) {
    fail("truncated header (not a checkpoint file?)");
  }
  const auto got_magic = static_cast<std::uint32_t>(read_le(header, 4));
  if (got_magic != magic) fail("bad magic (file is not a " + who_ + ")");
  const auto got_version = static_cast<std::uint32_t>(read_le(header + 4, 4));
  if (got_version != version) {
    fail("unsupported format version " + std::to_string(got_version) + " (expected " +
         std::to_string(version) + ")");
  }
  const std::uint64_t size = read_le(header + 8, 8);
  const std::uint64_t digest = read_le(header + 16, 8);
  payload_.resize(size);
  in.read(payload_.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    fail("truncated payload (got " + std::to_string(in.gcount()) + " of " +
         std::to_string(size) + " bytes)");
  }
  if (fnv1a64(payload_.data(), payload_.size()) != digest) {
    fail("payload digest mismatch (file is corrupted)");
  }
}

void SnapshotReader::fail(const std::string& what) const {
  throw std::runtime_error(who_ + ": " + what);
}

const char* SnapshotReader::need(std::size_t bytes) {
  if (payload_.size() - cursor_ < bytes) fail("read past end of payload");
  const char* p = payload_.data() + cursor_;
  cursor_ += bytes;
  return p;
}

std::uint8_t SnapshotReader::get_u8() {
  return static_cast<std::uint8_t>(*reinterpret_cast<const unsigned char*>(need(1)));
}

std::uint32_t SnapshotReader::get_u32() {
  return static_cast<std::uint32_t>(read_le(need(4), 4));
}

std::uint64_t SnapshotReader::get_u64() { return read_le(need(8), 8); }

double SnapshotReader::get_f64() { return std::bit_cast<double>(get_u64()); }

void SnapshotReader::expect_end() const {
  if (cursor_ != payload_.size()) {
    fail("trailing bytes in payload (" + std::to_string(payload_.size() - cursor_) +
         " unread)");
  }
}

void save_support_index(SnapshotWriter& out, const SupportIndex& index) {
  const int n = index.n();
  out.put_i32(n);
  out.put_i32(index.nnz());
  for (int i = 0; i < n; ++i) {
    const double* row = index.matrix().row_data(i);
    for (const int j : index.row_support(i)) {
      out.put_i32(i);
      out.put_i32(j);
      out.put_f64(row[j]);
    }
  }
}

SupportIndex load_support_index(SnapshotReader& in) {
  const int n = in.get_i32();
  const int nnz = in.get_i32();
  if (n < 0 || nnz < 0 || (n == 0 && nnz > 0)) {
    throw std::runtime_error("snapshot: malformed SupportIndex dimensions");
  }
  SupportIndex index = SupportIndex::zeros(n);
  std::int64_t previous = -1;  // row-major position of the previous entry
  for (int k = 0; k < nnz; ++k) {
    const int i = in.get_i32();
    const int j = in.get_i32();
    const double v = in.get_f64();
    if (i < 0 || i >= n || j < 0 || j >= n) {
      throw std::runtime_error("snapshot: SupportIndex entry out of range");
    }
    const std::int64_t position = std::int64_t{i} * n + j;
    if (position <= previous) {
      throw std::runtime_error("snapshot: SupportIndex entry duplicated or out of order");
    }
    if (!std::isfinite(v) || approx_zero(v)) {
      throw std::runtime_error("snapshot: SupportIndex value not finite or below kTimeEps");
    }
    previous = position;
    index.set(i, j, v);
  }
  return index;
}

}  // namespace reco
