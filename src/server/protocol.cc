#include "src/server/protocol.h"

#include <cstring>

namespace pnw::server {

namespace {

/// Bounds-checked little-endian reader over one frame's payload. Every
/// accessor validates *before* touching bytes, so the decoders below can
/// never over-read no matter what the length fields claim.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  bool ReadU16(uint16_t* out) {
    uint16_t v = 0;
    if (!ReadRaw(&v, sizeof(v))) {
      return false;
    }
    *out = v;
    return true;
  }

  bool ReadU32(uint32_t* out) {
    uint32_t v = 0;
    if (!ReadRaw(&v, sizeof(v))) {
      return false;
    }
    *out = v;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    uint64_t v = 0;
    if (!ReadRaw(&v, sizeof(v))) {
      return false;
    }
    *out = v;
    return true;
  }

  bool ReadBytes(size_t n, std::span<const uint8_t>* out) {
    if (remaining() < n) {
      return false;
    }
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (remaining() < n) {
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

void AppendU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

void AppendU16(uint16_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void AppendBytes(std::span<const uint8_t> bytes, std::vector<uint8_t>* out) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

/// Reserve the frame header (len placeholder + header rest) for a frame
/// being appended to `out`; returns the offset of the body_len field so
/// FinishFrame can backfill it once the payload size is known.
size_t BeginFrame(uint8_t opcode, uint8_t status, uint64_t request_id,
                  std::vector<uint8_t>* out) {
  const size_t len_at = out->size();
  AppendU32(0, out);  // body_len, backfilled
  AppendU8(kProtocolVersion, out);
  AppendU8(opcode, out);
  AppendU8(status, out);
  AppendU8(0, out);  // flags
  AppendU64(request_id, out);
  return len_at;
}

void FinishFrame(size_t len_at, std::vector<uint8_t>* out) {
  const uint32_t body_len =
      static_cast<uint32_t>(out->size() - len_at - kFrameLenBytes);
  std::memcpy(out->data() + len_at, &body_len, sizeof(body_len));
}

Status TruncatedPayload(const char* what) {
  return Status::Corruption(std::string("truncated payload: ") + what);
}

}  // namespace

bool OpcodeKnown(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kGet) &&
         raw <= static_cast<uint8_t>(Opcode::kStats);
}

bool WireStatusKnown(uint8_t raw) {
  return raw <= static_cast<uint8_t>(Status::Code::kOverloaded);
}

FrameResult ExtractFrame(std::span<const uint8_t> buffer,
                         const ProtocolLimits& limits, FrameView* out,
                         Status* error) {
  if (buffer.size() < kFrameLenBytes) {
    return FrameResult::kNeedMore;
  }
  uint32_t body_len = 0;
  std::memcpy(&body_len, buffer.data(), sizeof(body_len));
  // Validate the length *before* waiting for the bytes it promises: a
  // negative-wrapped or absurd length must fail now, not hang a reader
  // waiting for 4 GiB that never comes.
  if (body_len < kFrameHeaderAfterLen) {
    *error = Status::Corruption("frame body_len below header size");
    return FrameResult::kError;
  }
  if (body_len > limits.max_frame_bytes) {
    *error = Status::Corruption("frame body_len beyond limit");
    return FrameResult::kError;
  }
  if (buffer.size() < kFrameLenBytes + body_len) {
    return FrameResult::kNeedMore;
  }
  const uint8_t version = buffer[4];
  const uint8_t opcode = buffer[5];
  const uint8_t status = buffer[6];
  const uint8_t flags = buffer[7];
  if (version != kProtocolVersion) {
    *error = Status::Corruption("unsupported protocol version");
    return FrameResult::kError;
  }
  if (flags != 0) {
    *error = Status::Corruption("reserved frame flags set");
    return FrameResult::kError;
  }
  uint64_t request_id = 0;
  std::memcpy(&request_id, buffer.data() + 8, sizeof(request_id));
  out->version = version;
  out->opcode = opcode;
  out->status = status;
  out->request_id = request_id;
  out->payload = buffer.subspan(kFrameLenBytes + kFrameHeaderAfterLen,
                                body_len - kFrameHeaderAfterLen);
  out->frame_bytes = kFrameLenBytes + body_len;
  return FrameResult::kOk;
}

Status DecodeRequest(const FrameView& frame, const ProtocolLimits& limits,
                     Request* out) {
  if (!OpcodeKnown(frame.opcode)) {
    return Status::InvalidArgument("unknown request opcode");
  }
  out->opcode = static_cast<Opcode>(frame.opcode);
  out->request_id = frame.request_id;
  out->value.clear();
  PayloadReader reader(frame.payload);
  switch (out->opcode) {
    case Opcode::kGet:
    case Opcode::kDelete:
      if (!reader.ReadU64(&out->key)) {
        return TruncatedPayload("key");
      }
      break;
    case Opcode::kPut: {
      uint32_t len = 0;
      if (!reader.ReadU64(&out->key) || !reader.ReadU32(&len)) {
        return TruncatedPayload("key/value_len");
      }
      if (len > limits.max_value_bytes) {
        return Status::Corruption("value length beyond limit");
      }
      std::span<const uint8_t> bytes;
      if (!reader.ReadBytes(len, &bytes)) {
        return TruncatedPayload("value bytes");
      }
      out->value.assign(bytes.begin(), bytes.end());
      break;
    }
    case Opcode::kStats:
      break;
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after request payload");
  }
  return Status::OK();
}

Status DecodeResponse(const FrameView& frame, const ProtocolLimits& limits,
                      Response* out) {
  if (!OpcodeKnown(frame.opcode)) {
    return Status::InvalidArgument("unknown response opcode");
  }
  if (!WireStatusKnown(frame.status)) {
    return Status::Corruption("unknown response status code");
  }
  out->opcode = static_cast<Opcode>(frame.opcode);
  out->request_id = frame.request_id;
  out->status = static_cast<Status::Code>(frame.status);
  out->value.clear();
  out->stats.clear();
  PayloadReader reader(frame.payload);
  switch (out->opcode) {
    case Opcode::kGet: {
      // Error responses carry no value.
      if (out->status != Status::Code::kOk && reader.remaining() == 0) {
        break;
      }
      uint32_t len = 0;
      if (!reader.ReadU32(&len)) {
        return TruncatedPayload("value_len");
      }
      if (len > limits.max_value_bytes) {
        return Status::Corruption("value length beyond limit");
      }
      std::span<const uint8_t> bytes;
      if (!reader.ReadBytes(len, &bytes)) {
        return TruncatedPayload("value bytes");
      }
      out->value.assign(bytes.begin(), bytes.end());
      break;
    }
    case Opcode::kPut:
    case Opcode::kDelete:
      break;
    case Opcode::kStats: {
      uint32_t count = 0;
      if (!reader.ReadU32(&count)) {
        return TruncatedPayload("stat count");
      }
      // The count is only believed as far as the bytes back it: an entry
      // takes at least 10 bytes (u16 name_len, u64 value), so a huge count
      // in a small frame fails here instead of sizing the resize below.
      if (reader.remaining() < size_t{count} * 10) {
        return TruncatedPayload("stats");
      }
      out->stats.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint16_t name_len = 0;
        if (!reader.ReadU16(&name_len)) {
          return TruncatedPayload("stat name_len");
        }
        std::span<const uint8_t> name;
        uint64_t value = 0;
        if (!reader.ReadBytes(name_len, &name) || !reader.ReadU64(&value)) {
          return TruncatedPayload("stat name/value");
        }
        out->stats[i].first.assign(name.begin(), name.end());
        out->stats[i].second = value;
      }
      break;
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after response payload");
  }
  return Status::OK();
}

void EncodeGet(uint64_t request_id, uint64_t key, std::vector<uint8_t>* out) {
  const size_t at =
      BeginFrame(static_cast<uint8_t>(Opcode::kGet), 0, request_id, out);
  AppendU64(key, out);
  FinishFrame(at, out);
}

void EncodePut(uint64_t request_id, uint64_t key,
               std::span<const uint8_t> value, std::vector<uint8_t>* out) {
  const size_t at =
      BeginFrame(static_cast<uint8_t>(Opcode::kPut), 0, request_id, out);
  AppendU64(key, out);
  AppendU32(static_cast<uint32_t>(value.size()), out);
  AppendBytes(value, out);
  FinishFrame(at, out);
}

void EncodeDelete(uint64_t request_id, uint64_t key,
                  std::vector<uint8_t>* out) {
  const size_t at =
      BeginFrame(static_cast<uint8_t>(Opcode::kDelete), 0, request_id, out);
  AppendU64(key, out);
  FinishFrame(at, out);
}

void EncodeStats(uint64_t request_id, std::vector<uint8_t>* out) {
  const size_t at =
      BeginFrame(static_cast<uint8_t>(Opcode::kStats), 0, request_id, out);
  FinishFrame(at, out);
}

void EncodeResponse(const Response& response, std::vector<uint8_t>* out) {
  const size_t at = BeginFrame(static_cast<uint8_t>(response.opcode),
                               static_cast<uint8_t>(response.status),
                               response.request_id, out);
  switch (response.opcode) {
    case Opcode::kGet:
      if (response.status == Status::Code::kOk) {
        AppendU32(static_cast<uint32_t>(response.value.size()), out);
        AppendBytes(response.value, out);
      }
      break;
    case Opcode::kPut:
    case Opcode::kDelete:
      break;
    case Opcode::kStats:
      AppendU32(static_cast<uint32_t>(response.stats.size()), out);
      for (const auto& [name, value] : response.stats) {
        AppendU16(static_cast<uint16_t>(name.size()), out);
        AppendBytes(std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(name.data()),
                        name.size()),
                    out);
        AppendU64(value, out);
      }
      break;
  }
  FinishFrame(at, out);
}

}  // namespace pnw::server
