// Wire protocol of the networked front-end: length-prefixed binary frames,
// versioned header, no CRC -- the transport (TCP) owns integrity, the codec
// owns *structure*. Every length field is validated against hard limits
// before a single byte of payload is trusted, so a torn, truncated, or
// adversarial stream yields a typed error (kCorruption for structural rot,
// kInvalidArgument for an unknown opcode), never a crash, hang, or
// over-read (tests/server_protocol_test.cc fuzzes exactly this contract).
//
// Frame layout (all integers little-endian):
//
//   uint32  body_len     bytes after this field (header rest + payload)
//   uint8   version      kProtocolVersion
//   uint8   opcode       Opcode
//   uint8   status       requests: 0; responses: Status::Code
//   uint8   flags        reserved, must be 0
//   uint64  request_id   echoed verbatim in the response
//   payload[body_len - kFrameHeaderAfterLen]
//
// Request payloads:
//   GET / DELETE   uint64 key
//   PUT            uint64 key, uint32 value_len, value bytes
//   STATS          empty
//
// Response payloads:
//   GET            uint32 value_len, value bytes (empty on error status)
//   PUT / DELETE   empty
//   STATS          uint32 count, count x (uint16 name_len, name, uint64 val)
//
// Every key travels in its own frame. A client batches by pipelining:
// it keeps many frames in flight on one connection, and the server hands
// each run of adjacent GETs (PUTs) to the store as one batch.
#ifndef PNW_SERVER_PROTOCOL_H_
#define PNW_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace pnw::server {

/// v2: one key per frame, and STATS moved to opcode 4, so a v1 peer fails
/// at framing instead of having its opcodes misread.
inline constexpr uint8_t kProtocolVersion = 2;

/// Bytes of header following the body_len field (version, opcode, status,
/// flags, request_id). The minimum legal body_len.
inline constexpr size_t kFrameHeaderAfterLen = 12;
/// The body_len field itself.
inline constexpr size_t kFrameLenBytes = 4;

enum class Opcode : uint8_t {
  kGet = 1,
  kPut = 2,
  kDelete = 3,
  kStats = 4,
};

/// True for the opcodes this protocol version defines (the decoder rejects
/// everything else as kInvalidArgument without reading the payload).
bool OpcodeKnown(uint8_t raw);

/// True for the raw status bytes this protocol version can carry. The wire
/// status space is exactly Status::Code, so every mappable code fits in the
/// response header's status byte; decoders reject anything outside the
/// range as kCorruption. This is the single choke point for the check --
/// protocol_exhaustiveness_lint.py pins its bound to the last Status::Code
/// member, so adding an error category automatically widens the wire space
/// or fails CI.
bool WireStatusKnown(uint8_t raw);

/// Decoder hard limits. Every length field in a frame is checked against
/// these *and* against the bytes actually present, in that order, so a
/// negative-wrapped or oversized length can never size an allocation.
struct ProtocolLimits {
  /// Max body_len (header rest + payload). Frames above this are rot or
  /// abuse; the connection is not recoverable past one (the stream offset
  /// is lost).
  size_t max_frame_bytes = 4u << 20;
  /// Max bytes of one value.
  size_t max_value_bytes = 1u << 20;
};

/// One frame located in (not copied out of) a receive buffer.
struct FrameView {
  uint8_t version = 0;
  uint8_t opcode = 0;
  uint8_t status = 0;
  uint64_t request_id = 0;
  std::span<const uint8_t> payload;
  /// Total frame size in the buffer (len field + body): how far the
  /// consumer advances after handling this frame.
  size_t frame_bytes = 0;
};

/// Outcome of trying to slice one frame off the front of a byte stream.
enum class FrameResult : uint8_t {
  kOk = 0,
  /// The buffer holds a prefix of a frame that is within limits so far;
  /// read more bytes and retry. Never returned for a structurally
  /// impossible prefix -- those are kError immediately.
  kNeedMore = 1,
  kError = 2,
};

/// Slice one frame off the front of `buffer`. On kOk fills `out` (payload
/// points into `buffer`); on kError fills `error` with the typed status
/// (kCorruption: body_len below the header size or above
/// limits.max_frame_bytes, wrong version, nonzero flags). Unknown opcodes
/// are *not* an extraction error: framing is still trustworthy, so the
/// caller can answer kInvalidArgument and keep the stream.
FrameResult ExtractFrame(std::span<const uint8_t> buffer,
                         const ProtocolLimits& limits, FrameView* out,
                         Status* error);

/// A decoded request, one frame's worth.
struct Request {
  Opcode opcode = Opcode::kGet;
  uint64_t request_id = 0;
  uint64_t key = 0;            // GET / PUT / DELETE
  std::vector<uint8_t> value;  // PUT
};

/// A decoded response, one frame's worth.
struct Response {
  Opcode opcode = Opcode::kGet;
  uint64_t request_id = 0;
  Status::Code status = Status::Code::kOk;
  std::vector<uint8_t> value;  // GET
  /// STATS: flat name -> counter map (store + server counters).
  std::vector<std::pair<std::string, uint64_t>> stats;
};

/// Decode the payload of an already-extracted request frame. Returns
/// kInvalidArgument for an unknown opcode, kCorruption for any structural
/// mismatch (truncated payload, length past limits, trailing bytes). On
/// error `out` is unspecified.
Status DecodeRequest(const FrameView& frame, const ProtocolLimits& limits,
                     Request* out);

/// Decode the payload of an already-extracted response frame (client side).
/// A STATS count is believed only as far as the payload bytes back it, so
/// max_frame_bytes bounds what it can allocate.
Status DecodeResponse(const FrameView& frame, const ProtocolLimits& limits,
                      Response* out);

/// Append one encoded request frame to `out` (which may already hold
/// frames -- pipelined senders batch their writes this way).
void EncodeGet(uint64_t request_id, uint64_t key, std::vector<uint8_t>* out);
void EncodePut(uint64_t request_id, uint64_t key,
               std::span<const uint8_t> value, std::vector<uint8_t>* out);
void EncodeDelete(uint64_t request_id, uint64_t key,
                  std::vector<uint8_t>* out);
void EncodeStats(uint64_t request_id, std::vector<uint8_t>* out);

/// Append one encoded response frame to `out`.
void EncodeResponse(const Response& response, std::vector<uint8_t>* out);

}  // namespace pnw::server

#endif  // PNW_SERVER_PROTOCOL_H_
