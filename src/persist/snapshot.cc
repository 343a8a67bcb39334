#include "src/persist/snapshot.h"

#include <string>

#include "src/persist/crc32.h"

namespace pnw::persist {

SectionWriter& SnapshotWriter::AddSection(uint32_t id) {
  sections_.emplace_back(id, SectionWriter{});
  return sections_.back().second;
}

Result<PendingFile> SnapshotWriter::WriteTemp(const std::string& path) const {
  // Stream header + per-section frames + the payload pieces themselves
  // straight from their owning memory: no full-container copy (the
  // device-contents section alone is the size of the simulated chip).
  BufferWriter header;
  header.PutU32(kSnapshotMagic);
  header.PutU32(kSnapshotContainerVersion);
  header.PutU32(payload_version_);
  header.PutU32(static_cast<uint32_t>(sections_.size()));
  std::vector<BufferWriter> frames;
  frames.reserve(sections_.size());
  std::vector<std::span<const uint8_t>> parts;
  parts.emplace_back(header.data());
  for (const auto& [id, payload] : sections_) {
    const std::vector<std::span<const uint8_t>> pieces = payload.Parts();
    uint32_t crc = kCrc32Init;
    for (const auto& piece : pieces) {
      crc = Crc32Update(crc, piece);
    }
    BufferWriter& frame = frames.emplace_back();
    frame.PutU32(id);
    frame.PutU64(payload.size());
    frame.PutU32(Crc32Finish(crc));
    parts.emplace_back(frame.data());
    parts.insert(parts.end(), pieces.begin(), pieces.end());
  }
  return WriteTempFile(path, parts);
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  auto pending = WriteTemp(path);
  if (!pending.ok()) {
    return pending.status();
  }
  return pending.value().Commit();
}

Result<SnapshotReader> SnapshotReader::Parse(
    std::vector<uint8_t> bytes, uint32_t expected_payload_version) {
  SnapshotReader snap;
  snap.bytes_ = std::move(bytes);
  BufferReader r(snap.bytes_);
  uint32_t magic = 0;
  uint32_t container_version = 0;
  uint32_t section_count = 0;
  if (!r.GetU32(&magic).ok() || magic != kSnapshotMagic) {
    return Status::Corruption("not a PNW snapshot (bad magic)");
  }
  PNW_RETURN_IF_ERROR(r.GetU32(&container_version));
  if (container_version != kSnapshotContainerVersion) {
    return Status::InvalidArgument(
        "snapshot container version mismatch: file has v" +
        std::to_string(container_version) + ", library reads v" +
        std::to_string(kSnapshotContainerVersion));
  }
  PNW_RETURN_IF_ERROR(r.GetU32(&snap.payload_version_));
  if (snap.payload_version_ != expected_payload_version) {
    return Status::InvalidArgument(
        "snapshot version mismatch: file has v" +
        std::to_string(snap.payload_version_) + ", library reads v" +
        std::to_string(expected_payload_version));
  }
  PNW_RETURN_IF_ERROR(r.GetU32(&section_count));
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t id = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    PNW_RETURN_IF_ERROR(r.GetU32(&id));
    PNW_RETURN_IF_ERROR(r.GetU64(&length));
    PNW_RETURN_IF_ERROR(r.GetU32(&crc));
    if (length > r.remaining()) {
      return Status::Corruption("snapshot section " + std::to_string(id) +
                                " truncated");
    }
    const size_t offset = r.position();
    const std::span<const uint8_t> payload(snap.bytes_.data() + offset,
                                           length);
    if (Crc32(payload) != crc) {
      return Status::Corruption("snapshot section " + std::to_string(id) +
                                " failed its checksum");
    }
    for (const auto& existing : snap.sections_) {
      if (existing.id == id) {
        return Status::Corruption("snapshot has duplicate section " +
                                  std::to_string(id));
      }
    }
    snap.sections_.push_back(SectionRef{id, offset, length});
    PNW_RETURN_IF_ERROR(r.Skip(length));
  }
  return snap;
}

Result<SnapshotReader> SnapshotReader::FromFile(
    const std::string& path, uint32_t expected_payload_version) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return Parse(std::move(bytes.value()), expected_payload_version);
}

Result<BufferReader> SnapshotReader::Section(uint32_t id) const {
  for (const auto& s : sections_) {
    if (s.id == id) {
      return BufferReader(
          std::span<const uint8_t>(bytes_.data() + s.offset, s.length));
    }
  }
  return Status::NotFound("snapshot has no section " + std::to_string(id));
}

}  // namespace pnw::persist
