#ifndef PNW_PERSIST_SNAPSHOT_H_
#define PNW_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/persist/serializer.h"
#include "src/util/status.h"

namespace pnw::persist {

/// On-disk snapshot container (the durable half of the PR-3 durability
/// subsystem; the other half is the op-log in op_log.h).
///
/// Layout, all little-endian:
///
///     u32 magic            "PNWS"
///     u32 container_version  (layout of THIS header; bumped only if the
///                             framing itself changes)
///     u32 payload_version    (format of the section payloads; the caller
///                             passes the version it understands and a
///                             mismatch is a clean InvalidArgument, never a
///                             misparse)
///     u32 section_count
///     section_count x:
///       u32 id | u64 length | u32 crc32(payload) | payload bytes
///
/// Every section is individually CRC-32-checked at parse time, so a
/// corrupted snapshot is rejected up front with Status::Corruption -- no
/// partially-restored store states.
inline constexpr uint32_t kSnapshotMagic = 0x53574E50u;  // "PNWS"
inline constexpr uint32_t kSnapshotContainerVersion = 1;

/// Builds a snapshot in memory section by section, then writes it to disk
/// atomically (temp file + fsync + rename, see AtomicWriteFile) so a crash
/// during Checkpoint never destroys the previous checkpoint.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint32_t payload_version)
      : payload_version_(payload_version) {}

  /// Start a new section; returns the writer the caller fills with the
  /// section payload. Section ids must be unique within one snapshot.
  BufferWriter& AddSection(uint32_t id);

  /// Stream header + CRC-framed sections to `path` atomically (temp file
  /// + fsync + rename), straight from the section buffers -- no second
  /// full-container copy in memory.
  Status WriteToFile(const std::string& path) const;

 private:
  uint32_t payload_version_;
  std::vector<std::pair<uint32_t, BufferWriter>> sections_;
};

/// Parses and validates a snapshot container: magic, versions, and every
/// section CRC -- all before any section is handed out.
class SnapshotReader {
 public:
  SnapshotReader() = default;

  /// Parse from memory. `expected_payload_version` is the section format
  /// the caller can decode; a file with any other payload version fails
  /// with InvalidArgument ("snapshot version mismatch").
  static Result<SnapshotReader> Parse(std::vector<uint8_t> bytes,
                                      uint32_t expected_payload_version);

  /// ReadFileBytes() + Parse().
  static Result<SnapshotReader> FromFile(const std::string& path,
                                         uint32_t expected_payload_version);

  uint32_t payload_version() const { return payload_version_; }

  /// Reader positioned over the payload of section `id`; NotFound if the
  /// snapshot has no such section.
  Result<BufferReader> Section(uint32_t id) const;

 private:
  struct SectionRef {
    uint32_t id;
    size_t offset;
    size_t length;
  };

  uint32_t payload_version_ = 0;
  std::vector<uint8_t> bytes_;
  std::vector<SectionRef> sections_;
};

}  // namespace pnw::persist

#endif  // PNW_PERSIST_SNAPSHOT_H_
