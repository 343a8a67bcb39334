#include "src/persist/op_log.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>

#include "src/persist/crc32.h"
#include "src/persist/serializer.h"

namespace pnw::persist {

namespace {

constexpr char kLogMagic[8] = {'P', 'N', 'W', 'L', 'O', 'G', '1', '\n'};
/// Header = magic + u64 epoch.
constexpr size_t kHeaderBytes = sizeof(kLogMagic) + 8;
/// Record body = op (1) + key (8); value bytes follow.
constexpr size_t kBodyFixedBytes = 9;
/// Record frame = crc (4) + body_length (4).
constexpr size_t kFrameBytes = 8;

}  // namespace

Result<std::unique_ptr<OpLogWriter>> OpLogWriter::Open(
    const std::string& path, size_t sync_every, uint64_t epoch) {
  if (sync_every == 0) {
    return Status::InvalidArgument("op-log sync_every must be >= 1");
  }
  // Append mode creates the file when missing and positions every write at
  // the end, so re-attaching after recovery continues behind the replayed
  // records.
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("op-log open failed for " + path + ": " +
                            std::strerror(errno));
  }
  std::unique_ptr<OpLogWriter> writer(
      new OpLogWriter(path, file, sync_every));
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size == 0) {
    PNW_RETURN_IF_ERROR(writer->WriteHeader(epoch));
    // A brand-new log file is a new directory entry: persist it, or a
    // power failure could drop the whole (otherwise fsync'd) log.
    SyncParentDir(path);
  }
  return writer;
}

Status OpLogWriter::WriteHeader(uint64_t epoch) {
  BufferWriter header;
  header.PutBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kLogMagic), sizeof(kLogMagic)));
  header.PutU64(epoch);
  const auto& bytes = header.data();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal("op-log header write failed for " + path_);
  }
  return Status::OK();
}

OpLogWriter::~OpLogWriter() {
  if (file_ != nullptr) {
    // status-dropped: a destructor cannot report; callers needing durable
    // shutdown call Sync() themselves and see its Status.
    (void)Sync();
    // status-dropped: everything reachable was already fsync'd above; the
    // close result has no remaining consumer.
    (void)std::fclose(file_);
  }
}

Status OpLogWriter::Append(OpType op, uint64_t key,
                           std::span<const uint8_t> value) {
  const OpLogEntry entry{op, key, value};
  return AppendBatch(std::span<const OpLogEntry>(&entry, 1));
}

Status OpLogWriter::AppendBatch(std::span<const OpLogEntry> entries) {
  if (entries.empty()) {
    return Status::OK();
  }
  // Frame every record into one contiguous buffer (scratch capacity is
  // reused, so a warm append path allocates nothing), then hand the whole
  // group to stdio with a single fwrite + fflush.
  frame_scratch_.Clear();
  for (const OpLogEntry& entry : entries) {
    body_scratch_.Clear();
    body_scratch_.PutU8(static_cast<uint8_t>(entry.op));
    body_scratch_.PutU64(entry.key);
    body_scratch_.PutBytes(entry.value);
    frame_scratch_.PutU32(Crc32(body_scratch_.data()));
    frame_scratch_.PutU32(static_cast<uint32_t>(body_scratch_.size()));
    frame_scratch_.PutBytes(body_scratch_.data());
  }
  const auto& bytes = frame_scratch_.data();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::Internal("op-log append failed for " + path_);
  }
  // Hand the group to the OS in one flush (a process crash loses nothing);
  // pay the device sync only when the record counter crosses the group
  // boundary -- one deferred fsync per batch at most, never one per record.
  if (std::fflush(file_) != 0) {
    return Status::Internal("op-log flush failed for " + path_);
  }
  appended_ += entries.size();
  since_sync_ += entries.size();
  if (since_sync_ >= sync_every_) {
    return Sync();
  }
  return Status::OK();
}

Status OpLogWriter::Sync() {
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    return Status::Internal("op-log fsync failed for " + path_);
  }
  since_sync_ = 0;
  return Status::OK();
}

void OpLogWriter::CloseSuperseded(std::unique_ptr<OpLogWriter> log) {
  if (log != nullptr) {
    // status-dropped: every record was flushed to the OS on append, and no
    // recovery reads a superseded log, so a close error loses nothing.
    (void)std::fclose(log->file_);
    log->file_ = nullptr;  // the destructor has nothing left to sync
  }
}

Result<OpLogContents> ReadOpLog(const std::string& path,
                                uint64_t resume_offset) {
  OpLogContents contents;
  // The header first, then only the bytes past the resume offset: a
  // checkpoint carrying a few records from a log of megabytes must not
  // read the rest.
  uint64_t file_size = 0;
  auto head = ReadFileBytes(path, 0, kHeaderBytes, &file_size);
  if (!head.ok()) {
    if (head.status().IsNotFound()) {
      return contents;  // no log yet: nothing to replay
    }
    return head.status();
  }
  const std::vector<uint8_t>& header_bytes = head.value();
  if (header_bytes.empty()) {
    return contents;
  }
  if (header_bytes.size() < kHeaderBytes ||
      std::memcmp(header_bytes.data(), kLogMagic, sizeof(kLogMagic)) != 0) {
    return Status::Corruption("not a PNW op-log: " + path);
  }
  {
    BufferReader header(std::span<const uint8_t>(
        header_bytes.data() + sizeof(kLogMagic),
        kHeaderBytes - sizeof(kLogMagic)));
    PNW_RETURN_IF_ERROR(header.GetU64(&contents.epoch));
  }
  contents.has_header = true;
  const uint64_t start = std::max<uint64_t>(
      kHeaderBytes, std::min<uint64_t>(resume_offset, file_size));
  contents.valid_bytes = start;
  auto tail = ReadFileBytes(path, start);
  if (!tail.ok()) {
    return tail.status();
  }
  BufferReader r(tail.value());
  while (!r.AtEnd()) {
    uint32_t crc = 0;
    uint32_t body_len = 0;
    if (r.remaining() < kFrameBytes || !r.GetU32(&crc).ok() ||
        !r.GetU32(&body_len).ok() || body_len < kBodyFixedBytes ||
        body_len > r.remaining()) {
      contents.tail_truncated = true;
      break;
    }
    std::vector<uint8_t> body(body_len);
    if (!r.GetBytes(body).ok() || Crc32(body) != crc) {
      contents.tail_truncated = true;
      break;
    }
    BufferReader br(body);
    OpRecord rec;
    uint8_t op = 0;
    if (!br.GetU8(&op).ok() || op > static_cast<uint8_t>(OpType::kTrain) ||
        !br.GetU64(&rec.key).ok()) {
      contents.tail_truncated = true;
      break;
    }
    rec.op = static_cast<OpType>(op);
    rec.value.assign(body.begin() + kBodyFixedBytes, body.end());
    contents.records.push_back(std::move(rec));
    contents.valid_bytes = start + r.position();
  }
  return contents;
}

Status TruncateOpLog(const std::string& path, uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    return Status::Internal("op-log truncate failed for " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

}  // namespace pnw::persist
