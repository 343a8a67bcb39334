#ifndef PNW_PERSIST_SERIALIZER_H_
#define PNW_PERSIST_SERIALIZER_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace pnw::persist {

// Every persisted integer is little-endian. The hosts this library builds
// for are too, so a field's memory order IS its encoding: scalars and
// arrays are copied whole, and a big-endian port fails here instead of
// writing files no other build can read.
static_assert(std::endian::native == std::endian::little,
              "the persist encoding assumes a little-endian host");

/// Little-endian binary encoder backing every persisted artifact. Fields
/// are fixed-width little-endian values (never memcpy'd structs), so the
/// on-disk format is independent of padding and struct layout -- a
/// snapshot written on one machine opens on any other.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// IEEE-754 bit pattern, little-endian.
  void PutFloat(float v);
  void PutDouble(double v);
  /// Raw bytes, no length prefix (caller frames them).
  void PutBytes(std::span<const uint8_t> bytes);
  /// u64 count followed by the raw bytes.
  void PutSizedBytes(std::span<const uint8_t> bytes);
  /// u64 count followed by the elements (fixed-width little-endian each),
  /// copied in one block.
  void PutU16Vec(std::span<const uint16_t> v);
  void PutU32Vec(std::span<const uint32_t> v);
  void PutU64Vec(std::span<const uint64_t> v);
  void PutFloatVec(std::span<const float> v);
  void PutDoubleVec(std::span<const double> v);

  const std::vector<uint8_t>& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  /// Drop the content but keep the capacity, so a writer reused as a
  /// per-record scratch (the op-log's append path) stops allocating once
  /// warm.
  void Clear() { buf_.clear(); }

 private:
  /// Append `n` raw bytes (a value already in its little-endian encoding).
  void PutRaw(const void* p, size_t n);

  std::vector<uint8_t> buf_;
};

/// A snapshot section's payload writer that borrows its bulk arrays
/// instead of copying them: PutSizedBytes, PutU16Vec and PutU32Vec encode
/// the u64 count and record a span over the caller's memory, which must
/// stay unchanged until the payload is written out (a checkpoint writes
/// it under the lock that guards that memory). Every other Put*, and the
/// Encode* codecs that take a BufferWriter&, encode into the owned buffer
/// as usual. The payload bytes are exactly those a BufferWriter given the
/// same calls would hold, in pieces: Parts().
class SectionWriter : public BufferWriter {
 public:
  void PutSizedBytes(std::span<const uint8_t> bytes);
  void PutU16Vec(std::span<const uint16_t> v);
  void PutU32Vec(std::span<const uint32_t> v);

  /// The payload in order: owned runs between the borrowed spans.
  std::vector<std::span<const uint8_t>> Parts() const;
  /// Payload length, borrowed bytes included.
  size_t size() const { return BufferWriter::size() + borrowed_bytes_; }
  /// The owned bytes alone are not the payload; read it through Parts().
  const std::vector<uint8_t>& data() const = delete;

 private:
  void Borrow(std::span<const uint8_t> bytes);

  struct Borrowed {
    size_t offset;  // owned bytes that precede this span
    std::span<const uint8_t> bytes;
  };
  std::vector<Borrowed> borrowed_;
  size_t borrowed_bytes_ = 0;
};

/// Bounds-checked little-endian decoder over a borrowed byte span. Every
/// getter fails with Status::Corruption instead of reading out of bounds,
/// and vector getters validate the element count against the remaining
/// bytes before allocating (a flipped length field must not OOM recovery).
class BufferReader {
 public:
  BufferReader() = default;
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetBool(bool* out);
  Status GetU16(uint16_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetFloat(float* out);
  Status GetDouble(double* out);
  /// Copy exactly out.size() bytes.
  Status GetBytes(std::span<uint8_t> out);
  /// Read a u64 count then that many bytes.
  Status GetSizedBytes(std::vector<uint8_t>* out);
  Status GetU16Vec(std::vector<uint16_t>* out);
  Status GetU32Vec(std::vector<uint32_t>* out);
  Status GetU64Vec(std::vector<uint64_t>* out);
  Status GetFloatVec(std::vector<float>* out);
  Status GetDoubleVec(std::vector<double>* out);

  /// Advance past `n` bytes without copying them.
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n);
  /// Validates `count * elem_size <= remaining` before any allocation.
  Status CheckedCount(uint64_t count, size_t elem_size);
  /// u64 count, then that many fixed-width elements copied in one block.
  template <typename T>
  Status GetVec(std::vector<T>* out);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Read a file into a buffer sized once from fstat: all of it by default,
/// or at most `max_bytes` starting at `offset` (clipped at the end of the
/// file; an offset past it reads nothing). `file_size`, when given,
/// receives the file's length. NotFound if the file does not exist.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           uint64_t offset = 0,
                                           uint64_t max_bytes = UINT64_MAX,
                                           uint64_t* file_size = nullptr);

/// A file written to `path + ".tmp"` but not yet durable (the first half
/// of AtomicWriteFile). Commit() fsyncs it, renames it over `path` and
/// fsyncs the directory; none of that touches the bytes' source, so a
/// caller can release whatever lock guarded that source first. Dropping
/// an uncommitted one closes and removes the temp file.
class PendingFile {
 public:
  PendingFile() = default;
  PendingFile(PendingFile&& other) noexcept;
  PendingFile& operator=(PendingFile&&) = delete;
  ~PendingFile();

  /// fsync, rename over the target path, fsync its directory. On failure
  /// the temp file is removed and whatever `path` held before stays.
  Status Commit();

 private:
  friend Result<PendingFile> WriteTempFile(
      const std::string& path,
      std::span<const std::span<const uint8_t>> parts);
  PendingFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  void Discard();

  std::string path_;  // the target; the temp file is path_ + ".tmp"
  int fd_ = -1;       // open on the temp file until Commit or Discard
};

/// Write `parts` back to back into `path + ".tmp"` (created or
/// truncated), without an fsync. Lets a snapshot stream its (large)
/// section payloads straight from their owning memory instead of
/// concatenating the whole container first.
Result<PendingFile> WriteTempFile(
    const std::string& path,
    std::span<const std::span<const uint8_t>> parts);

/// Crash-safe file replacement: WriteTempFile + Commit, i.e. write to
/// `path + ".tmp"`, fsync the file, rename over `path`, fsync the
/// directory. A crash at any point leaves either the old file or the new
/// one -- never a torn mix.
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes);

/// fsync the directory containing `path`, persisting a newly created
/// directory entry (a freshly created file whose *content* is fsync'd can
/// still vanish on power loss if its directory entry never hit disk).
void SyncParentDir(const std::string& path);

}  // namespace pnw::persist

#endif  // PNW_PERSIST_SERIALIZER_H_
