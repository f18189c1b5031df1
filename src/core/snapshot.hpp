// Versioned binary snapshots: the serialization substrate of deterministic
// checkpoint/restart (docs/RELIABILITY.md).
//
// A snapshot file is a fixed header followed by an opaque payload:
//
//   offset  size  field
//   0       4     magic (little-endian u32, per snapshot kind)
//   4       4     format version (little-endian u32)
//   8       8     payload size in bytes (little-endian u64)
//   16      8     FNV-1a 64 digest of the payload (little-endian u64)
//   24      ...   payload
//
// Writers append typed fields to the payload; readers consume them in the
// same order.  Everything is explicit little-endian bytes — no struct
// dumps, so files are portable across compilers and ABIs.  Doubles are
// bit-cast through u64, which is what makes restored simulation state
// *bit-identical*: a resumed run replays the exact same IEEE values the
// uninterrupted run would have used.
//
// Readers validate magic, version, payload size, and digest up front and
// throw std::runtime_error with a message naming the failure (truncated /
// corrupted / wrong kind / unsupported version), so a campaign resumed
// from a damaged checkpoint fails loudly instead of computing garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/support_index.hpp"

namespace reco {

/// FNV-1a 64-bit over `size` bytes, chainable via `seed` (the offset basis
/// default starts a fresh digest).  Same constants as the online core's
/// slice digest, so every integrity witness in the tree agrees.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = kFnvOffsetBasis);

/// Accumulates a payload field by field, then writes header + payload.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Bit-exact double: the value round-trips through its u64 bit pattern.
  void put_f64(double v);

  const std::string& payload() const { return payload_; }

  /// Write header (magic, version, size, FNV digest) + payload to `out`.
  /// Throws std::runtime_error on stream failure.
  void finish(std::ostream& out, std::uint32_t magic, std::uint32_t version) const;

 private:
  std::string payload_;
};

/// Reads and validates one snapshot, then hands out fields in write order.
/// Every getter bounds-checks; reading past the payload throws.
class SnapshotReader {
 public:
  /// Consumes the header and payload from `in`, validating magic, version,
  /// size, and digest.  `who` names the snapshot kind in error messages
  /// (e.g. "daemon checkpoint").  Throws std::runtime_error on any
  /// mismatch, truncation, or corruption.
  SnapshotReader(std::istream& in, std::uint32_t magic, std::uint32_t version,
                 std::string who);

  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();

  std::size_t remaining() const { return payload_.size() - cursor_; }
  /// Throws if any payload bytes were left unread (format drift witness).
  void expect_end() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;
  const char* need(std::size_t bytes);

  std::string who_;
  std::string payload_;
  std::size_t cursor_ = 0;
};

/// Serialize a SupportIndex as (n, nnz, sorted (i, j, value-bits) triples).
/// Restoring rebuilds the index through the public set() path, which is
/// bit-exact: stored values are never sub-tolerance (the index invariant),
/// so the snap-to-zero in set() never fires, and sorted support makes the
/// restored iteration order identical to the saved one.  The loader
/// accepts exactly what the saver writes: it throws std::runtime_error on
/// an entry that does not come strictly after the previous one in (i, j)
/// order, or whose value is not finite or is below kTimeEps in magnitude.
void save_support_index(SnapshotWriter& out, const SupportIndex& index);
SupportIndex load_support_index(SnapshotReader& in);

}  // namespace reco
