#include "src/persist/serializer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

namespace pnw::persist {

void BufferWriter::PutRaw(const void* p, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(p);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

void BufferWriter::PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }

void BufferWriter::PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }

void BufferWriter::PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }

void BufferWriter::PutFloat(float v) { PutU32(std::bit_cast<uint32_t>(v)); }

void BufferWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void BufferWriter::PutBytes(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BufferWriter::PutSizedBytes(std::span<const uint8_t> bytes) {
  PutU64(bytes.size());
  PutBytes(bytes);
}

void BufferWriter::PutU16Vec(std::span<const uint16_t> v) {
  PutU64(v.size());
  PutRaw(v.data(), v.size_bytes());
}

void BufferWriter::PutU32Vec(std::span<const uint32_t> v) {
  PutU64(v.size());
  PutRaw(v.data(), v.size_bytes());
}

void BufferWriter::PutU64Vec(std::span<const uint64_t> v) {
  PutU64(v.size());
  PutRaw(v.data(), v.size_bytes());
}

// IEEE-754 binary32/binary64 with the integer byte order, so a float's
// memory is its PutFloat encoding.
static_assert(std::numeric_limits<float>::is_iec559 &&
              std::numeric_limits<double>::is_iec559);

void BufferWriter::PutFloatVec(std::span<const float> v) {
  PutU64(v.size());
  PutRaw(v.data(), v.size_bytes());
}

void BufferWriter::PutDoubleVec(std::span<const double> v) {
  PutU64(v.size());
  PutRaw(v.data(), v.size_bytes());
}

namespace {

/// An array's memory, which on this (little-endian) host is its encoding.
template <typename T>
std::span<const uint8_t> ByteView(std::span<const T> v) {
  return {reinterpret_cast<const uint8_t*>(v.data()), v.size_bytes()};
}

}  // namespace

void SectionWriter::Borrow(std::span<const uint8_t> bytes) {
  borrowed_.push_back(Borrowed{BufferWriter::size(), bytes});
  borrowed_bytes_ += bytes.size();
}

void SectionWriter::PutSizedBytes(std::span<const uint8_t> bytes) {
  PutU64(bytes.size());
  Borrow(bytes);
}

void SectionWriter::PutU16Vec(std::span<const uint16_t> v) {
  PutU64(v.size());
  Borrow(ByteView(v));
}

void SectionWriter::PutU32Vec(std::span<const uint32_t> v) {
  PutU64(v.size());
  Borrow(ByteView(v));
}

std::vector<std::span<const uint8_t>> SectionWriter::Parts() const {
  const std::vector<uint8_t>& owned = BufferWriter::data();
  std::vector<std::span<const uint8_t>> parts;
  parts.reserve(2 * borrowed_.size() + 1);
  size_t from = 0;
  for (const Borrowed& b : borrowed_) {
    parts.emplace_back(owned.data() + from, b.offset - from);
    parts.push_back(b.bytes);
    from = b.offset;
  }
  parts.emplace_back(owned.data() + from, owned.size() - from);
  return parts;
}

Status BufferReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("serialized buffer truncated");
  }
  return Status::OK();
}

Status BufferReader::CheckedCount(uint64_t count, size_t elem_size) {
  if (elem_size != 0 && count > remaining() / elem_size) {
    return Status::Corruption("serialized element count exceeds buffer");
  }
  return Status::OK();
}

Status BufferReader::Skip(size_t n) {
  PNW_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::OK();
}

Status BufferReader::GetU8(uint8_t* out) {
  PNW_RETURN_IF_ERROR(Need(1));
  *out = data_[pos_++];
  return Status::OK();
}

Status BufferReader::GetBool(bool* out) {
  uint8_t v = 0;
  PNW_RETURN_IF_ERROR(GetU8(&v));
  if (v > 1) {
    return Status::Corruption("serialized bool out of range");
  }
  *out = v != 0;
  return Status::OK();
}

Status BufferReader::GetU16(uint16_t* out) {
  PNW_RETURN_IF_ERROR(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::OK();
}

Status BufferReader::GetU32(uint32_t* out) {
  PNW_RETURN_IF_ERROR(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::OK();
}

Status BufferReader::GetU64(uint64_t* out) {
  PNW_RETURN_IF_ERROR(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::OK();
}

Status BufferReader::GetFloat(float* out) {
  uint32_t bits = 0;
  PNW_RETURN_IF_ERROR(GetU32(&bits));
  *out = std::bit_cast<float>(bits);
  return Status::OK();
}

Status BufferReader::GetDouble(double* out) {
  uint64_t bits = 0;
  PNW_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::OK();
}

Status BufferReader::GetBytes(std::span<uint8_t> out) {
  PNW_RETURN_IF_ERROR(Need(out.size()));
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
  return Status::OK();
}

Status BufferReader::GetSizedBytes(std::vector<uint8_t>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 1));
  out->resize(n);
  return GetBytes(*out);
}

template <typename T>
Status BufferReader::GetVec(std::vector<T>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, sizeof(T)));
  out->resize(n);
  const size_t bytes = n * sizeof(T);
  if (bytes != 0) {
    std::memcpy(out->data(), data_.data() + pos_, bytes);
  }
  pos_ += bytes;
  return Status::OK();
}

Status BufferReader::GetU16Vec(std::vector<uint16_t>* out) {
  return GetVec(out);
}

Status BufferReader::GetU32Vec(std::vector<uint32_t>* out) {
  return GetVec(out);
}

Status BufferReader::GetU64Vec(std::vector<uint64_t>* out) {
  return GetVec(out);
}

Status BufferReader::GetFloatVec(std::vector<float>* out) {
  return GetVec(out);
}

Status BufferReader::GetDoubleVec(std::vector<double>* out) {
  return GetVec(out);
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           uint64_t offset,
                                           uint64_t max_bytes,
                                           uint64_t* file_size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal("open failed for " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fstat failed for " + path + ": " + err);
  }
  const auto size = static_cast<uint64_t>(st.st_size);
  if (file_size != nullptr) {
    *file_size = size;
  }
  const uint64_t begin = std::min(offset, size);
  std::vector<uint8_t> bytes(std::min(max_bytes, size - begin));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::pread(fd, bytes.data() + done, bytes.size() - done,
                static_cast<off_t>(begin + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("read failed for " + path + ": " + err);
    }
    if (n == 0) {
      break;  // the file shrank since the fstat: keep what was there
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

PendingFile::PendingFile(PendingFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

PendingFile::~PendingFile() { Discard(); }

void PendingFile::Discard() {
  if (fd_ < 0) {
    return;
  }
  // status-dropped: the temp file is being thrown away; nothing reads it.
  (void)::close(fd_);
  fd_ = -1;
  // status-dropped: a leftover temp file is never opened, only overwritten.
  (void)::unlink((path_ + ".tmp").c_str());
}

Status PendingFile::Commit() {
  const std::string tmp = path_ + ".tmp";
  if (::fsync(fd_) != 0) {
    const std::string err = std::strerror(errno);
    Discard();
    return Status::Internal("fsync failed for " + tmp + ": " + err);
  }
  // status-dropped: the data is already durable; a close error has nothing
  // left to lose.
  (void)::close(fd_);
  fd_ = -1;
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path_ + ": " + err);
  }
  // Persist the rename itself.
  SyncParentDir(path_);
  return Status::OK();
}

Result<PendingFile> WriteTempFile(
    const std::string& path,
    std::span<const std::span<const uint8_t>> parts) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open failed for " + tmp + ": " +
                            std::strerror(errno));
  }
  // Owns the descriptor from here: an early return discards the temp file.
  PendingFile pending(path, fd);
  for (const auto& bytes : parts) {
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::Internal("write failed for " + tmp + ": " +
                                std::strerror(errno));
      }
      written += static_cast<size_t>(n);
    }
  }
  return pending;
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  const std::span<const uint8_t> parts[] = {bytes};
  auto pending = WriteTempFile(path, parts);
  if (!pending.ok()) {
    return pending.status();
  }
  return pending.value().Commit();
}

void SyncParentDir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dirfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    // status-dropped: directory fsync is best-effort hardening (some
    // filesystems refuse it); the data-file fsync is the durability point.
    (void)::fsync(dirfd);
    // status-dropped: read-only descriptor, nothing buffered to lose.
    (void)::close(dirfd);
  }
}

}  // namespace pnw::persist
