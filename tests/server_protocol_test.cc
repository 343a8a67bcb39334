// The wire-protocol contract battery (ISSUE 8 satellite 1): every opcode
// round-trips encode -> extract -> decode bit-exactly, torn streams at
// every byte boundary report kNeedMore (never a false error, never a
// hang), structurally impossible prefixes (zero / negative-wrapped /
// oversized lengths, wrong version, reserved flags) fail immediately with
// kCorruption, unknown opcodes decode to kInvalidArgument with framing
// intact, and a 10k-frame randomized adversarial stream never crashes,
// hangs, or over-reads -- only kOk / kNeedMore / typed errors. CI runs
// this under ASan+UBSan, which is what turns "never over-reads" from a
// claim into a check.
#include "src/server/protocol.h"

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace pnw::server {
namespace {

std::vector<uint8_t> Value(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

/// Extract + decode one request frame, asserting clean extraction.
Request MustDecodeRequest(const std::vector<uint8_t>& wire) {
  FrameView frame;
  Status error;
  EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kOk)
      << error.ToString();
  EXPECT_EQ(frame.frame_bytes, wire.size());
  Request out;
  const Status s = DecodeRequest(frame, ProtocolLimits{}, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

Response MustDecodeResponse(const std::vector<uint8_t>& wire) {
  FrameView frame;
  Status error;
  EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kOk)
      << error.ToString();
  EXPECT_EQ(frame.frame_bytes, wire.size());
  Response out;
  const Status s = DecodeResponse(frame, ProtocolLimits{}, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// --- Round trips: every request opcode ---

TEST(ServerProtocolTest, GetRoundTrip) {
  std::vector<uint8_t> wire;
  EncodeGet(/*request_id=*/42, /*key=*/0xdeadbeefcafe1234ull, &wire);
  const Request r = MustDecodeRequest(wire);
  EXPECT_EQ(r.opcode, Opcode::kGet);
  EXPECT_EQ(r.request_id, 42u);
  EXPECT_EQ(r.key, 0xdeadbeefcafe1234ull);
}

TEST(ServerProtocolTest, PutRoundTrip) {
  const std::vector<uint8_t> value = Value(128, 3);
  std::vector<uint8_t> wire;
  EncodePut(7, 99, value, &wire);
  const Request r = MustDecodeRequest(wire);
  EXPECT_EQ(r.opcode, Opcode::kPut);
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.key, 99u);
  EXPECT_EQ(r.value, value);
}

TEST(ServerProtocolTest, PutEmptyValueRoundTrip) {
  std::vector<uint8_t> wire;
  EncodePut(1, 2, {}, &wire);
  const Request r = MustDecodeRequest(wire);
  EXPECT_EQ(r.opcode, Opcode::kPut);
  EXPECT_TRUE(r.value.empty());
}

TEST(ServerProtocolTest, DeleteRoundTrip) {
  std::vector<uint8_t> wire;
  EncodeDelete(11, 12, &wire);
  const Request r = MustDecodeRequest(wire);
  EXPECT_EQ(r.opcode, Opcode::kDelete);
  EXPECT_EQ(r.request_id, 11u);
  EXPECT_EQ(r.key, 12u);
}

TEST(ServerProtocolTest, StatsRoundTrip) {
  std::vector<uint8_t> wire;
  EncodeStats(77, &wire);
  const Request r = MustDecodeRequest(wire);
  EXPECT_EQ(r.opcode, Opcode::kStats);
  EXPECT_EQ(r.request_id, 77u);
}

// --- Round trips: every response shape ---

TEST(ServerProtocolTest, GetResponseRoundTrip) {
  Response in;
  in.opcode = Opcode::kGet;
  in.request_id = 3;
  in.status = Status::Code::kOk;
  in.value = Value(32, 5);
  std::vector<uint8_t> wire;
  EncodeResponse(in, &wire);
  const Response out = MustDecodeResponse(wire);
  EXPECT_EQ(out.opcode, Opcode::kGet);
  EXPECT_EQ(out.request_id, 3u);
  EXPECT_EQ(out.status, Status::Code::kOk);
  EXPECT_EQ(out.value, in.value);
}

TEST(ServerProtocolTest, ErrorResponseRoundTrip) {
  Response in;
  in.opcode = Opcode::kPut;
  in.request_id = 8;
  in.status = Status::Code::kOverloaded;
  std::vector<uint8_t> wire;
  EncodeResponse(in, &wire);
  const Response out = MustDecodeResponse(wire);
  EXPECT_EQ(out.status, Status::Code::kOverloaded);
  EXPECT_EQ(out.request_id, 8u);
}

TEST(ServerProtocolTest, StatsResponseRoundTrip) {
  Response in;
  in.opcode = Opcode::kStats;
  in.request_id = 9;
  in.status = Status::Code::kOk;
  in.stats.emplace_back("store.puts", 123u);
  in.stats.emplace_back("server.frames_in", 0xffffffffffffffffull);
  std::vector<uint8_t> wire;
  EncodeResponse(in, &wire);
  const Response out = MustDecodeResponse(wire);
  ASSERT_EQ(out.stats.size(), 2u);
  EXPECT_EQ(out.stats[0].first, "store.puts");
  EXPECT_EQ(out.stats[0].second, 123u);
  EXPECT_EQ(out.stats[1].first, "server.frames_in");
  EXPECT_EQ(out.stats[1].second, 0xffffffffffffffffull);
}

// --- Torn frames: every byte boundary is kNeedMore, never an error ---

TEST(ServerProtocolTest, TornFrameAtEveryBoundaryNeedsMore) {
  const std::vector<uint8_t> value = Value(40, 1);
  std::vector<uint8_t> wire;
  EncodePut(21, 1234, value, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameView frame;
    Status error;
    const std::span<const uint8_t> prefix(wire.data(), cut);
    EXPECT_EQ(ExtractFrame(prefix, ProtocolLimits{}, &frame, &error),
              FrameResult::kNeedMore)
        << "cut at byte " << cut << ": " << error.ToString();
  }
  // The full frame extracts.
  FrameView frame;
  Status error;
  EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kOk);
}

TEST(ServerProtocolTest, PipelinedFramesExtractInOrder) {
  std::vector<uint8_t> wire;
  EncodeGet(1, 100, &wire);
  EncodePut(2, 200, Value(8, 3), &wire);
  EncodeDelete(3, 300, &wire);
  std::span<const uint8_t> rest(wire);
  for (uint64_t want_id = 1; want_id <= 3; ++want_id) {
    FrameView frame;
    Status error;
    ASSERT_EQ(ExtractFrame(rest, ProtocolLimits{}, &frame, &error),
              FrameResult::kOk);
    EXPECT_EQ(frame.request_id, want_id);
    rest = rest.subspan(frame.frame_bytes);
  }
  EXPECT_TRUE(rest.empty());
}

// --- Structurally impossible prefixes fail fast with kCorruption ---

TEST(ServerProtocolTest, BodyLenBelowHeaderIsCorruption) {
  // body_len = 0 and body_len = 11 both cannot hold the 12-byte header.
  for (uint32_t body_len : {0u, 1u, 11u}) {
    std::vector<uint8_t> wire(4);
    std::memcpy(wire.data(), &body_len, 4);
    FrameView frame;
    Status error;
    EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
              FrameResult::kError)
        << "body_len " << body_len;
    EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  }
}

TEST(ServerProtocolTest, OversizedBodyLenFailsBeforeBytesArrive) {
  // A length past the limit must fail with only the 4 length bytes
  // present -- waiting for the promised bytes would hang the stream.
  ProtocolLimits limits;
  limits.max_frame_bytes = 1024;
  for (uint32_t body_len : {1025u, 0x80000000u, 0xffffffffu}) {
    std::vector<uint8_t> wire(4);
    std::memcpy(wire.data(), &body_len, 4);
    FrameView frame;
    Status error;
    EXPECT_EQ(ExtractFrame(wire, limits, &frame, &error), FrameResult::kError)
        << "body_len " << body_len;
    EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  }
}

TEST(ServerProtocolTest, WrongVersionIsCorruption) {
  // A version from the future, and v1, whose opcode bytes 4-6 named other
  // requests than they do now.
  for (const int version : {kProtocolVersion + 1, 1}) {
    std::vector<uint8_t> wire;
    EncodeGet(1, 2, &wire);
    wire[4] = static_cast<uint8_t>(version);
    FrameView frame;
    Status error;
    EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
              FrameResult::kError)
        << "version " << version;
    EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  }
}

TEST(ServerProtocolTest, ReservedFlagsAreCorruption) {
  std::vector<uint8_t> wire;
  EncodeGet(1, 2, &wire);
  wire[7] = 0x80;  // flags byte: reserved, must be zero
  FrameView frame;
  Status error;
  EXPECT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kError);
  EXPECT_TRUE(error.IsCorruption()) << error.ToString();
}

// --- Unknown opcode: framing survives, decode is kInvalidArgument ---

TEST(ServerProtocolTest, UnknownOpcodeExtractsButFailsDecodeTyped) {
  // 5 and 6 were opcodes in v1; 0x7f never was one.
  for (const int opcode : {5, 6, 0x7f}) {
    std::vector<uint8_t> wire;
    EncodeGet(13, 2, &wire);
    wire[5] = static_cast<uint8_t>(opcode);  // opcode byte
    FrameView frame;
    Status error;
    ASSERT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
              FrameResult::kOk)
        << "unknown opcode " << opcode << " must not be a framing error";
    EXPECT_FALSE(OpcodeKnown(frame.opcode));
    Request req;
    const Status s = DecodeRequest(frame, ProtocolLimits{}, &req);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
}

// --- Payload structure: truncation, limits, trailing bytes ---

TEST(ServerProtocolTest, TruncatedPayloadIsCorruption) {
  // A PUT whose declared value_len reaches past the frame end.
  std::vector<uint8_t> wire;
  EncodePut(1, 2, Value(32, 4), &wire);
  // Shrink the frame: rewrite body_len to drop the last 8 payload bytes.
  uint32_t body_len;
  std::memcpy(&body_len, wire.data(), 4);
  body_len -= 8;
  std::memcpy(wire.data(), &body_len, 4);
  wire.resize(4 + body_len);
  FrameView frame;
  Status error;
  ASSERT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kOk);
  Request req;
  const Status s = DecodeRequest(frame, ProtocolLimits{}, &req);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ServerProtocolTest, StatsCountLyingAboutPayloadIsCorruption) {
  // A one-entry STATS response whose count claims one entry more, then
  // 2^28: the second must fail on the byte-floor check, before the decoder
  // sizes anything by the count.
  Response in;
  in.opcode = Opcode::kStats;
  in.stats.emplace_back("store.puts", 1u);
  for (const uint32_t count : {2u, 1u << 28}) {
    std::vector<uint8_t> wire;
    EncodeResponse(in, &wire);
    std::memcpy(wire.data() + kFrameLenBytes + kFrameHeaderAfterLen, &count,
                sizeof(count));
    FrameView frame;
    Status error;
    ASSERT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
              FrameResult::kOk);
    Response out;
    const Status s = DecodeResponse(frame, ProtocolLimits{}, &out);
    EXPECT_TRUE(s.IsCorruption()) << "count " << count << ": " << s.ToString();
  }
}

TEST(ServerProtocolTest, ValueLenPastLimitIsCorruption) {
  ProtocolLimits limits;
  limits.max_value_bytes = 16;
  std::vector<uint8_t> wire;
  EncodePut(1, 2, Value(17, 1), &wire);
  FrameView frame;
  Status error;
  ASSERT_EQ(ExtractFrame(wire, limits, &frame, &error), FrameResult::kOk);
  Request req;
  EXPECT_TRUE(DecodeRequest(frame, limits, &req).IsCorruption());
}

TEST(ServerProtocolTest, TrailingPayloadBytesAreCorruption) {
  // A GET frame with extra bytes after the key: the frame is well-formed
  // at the framing layer but structurally over-long for its opcode.
  std::vector<uint8_t> wire;
  EncodeGet(1, 2, &wire);
  uint32_t body_len;
  std::memcpy(&body_len, wire.data(), 4);
  body_len += 3;
  std::memcpy(wire.data(), &body_len, 4);
  wire.insert(wire.end(), {0xaa, 0xbb, 0xcc});
  FrameView frame;
  Status error;
  ASSERT_EQ(ExtractFrame(wire, ProtocolLimits{}, &frame, &error),
            FrameResult::kOk);
  Request req;
  EXPECT_TRUE(DecodeRequest(frame, ProtocolLimits{}, &req).IsCorruption());
}

// --- The adversarial battery: 10k random mutations, typed errors only ---
//
// Strategy: build a valid pipelined stream, then corrupt it with a random
// mutation (bit flip, byte splice, truncation, random garbage injection)
// and run the full server-side consumption loop (extract until kNeedMore
// or kError, decode every extracted frame). The contract under test: no
// crash, no over-read (ASan/UBSan in CI), no unbounded loop, and every
// failure is a typed Status -- kCorruption or kInvalidArgument.

std::vector<uint8_t> RandomValidStream(Rng& rng) {
  std::vector<uint8_t> wire;
  const size_t frames = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < frames; ++i) {
    const uint64_t id = rng.Next();
    switch (rng.NextBelow(4)) {
      case 0:
        EncodeGet(id, rng.Next(), &wire);
        break;
      case 1:
        EncodePut(id, rng.Next(), Value(rng.NextBelow(64), 1), &wire);
        break;
      case 2:
        EncodeDelete(id, rng.Next(), &wire);
        break;
      default:
        EncodeStats(id, &wire);
        break;
    }
  }
  return wire;
}

void Mutate(Rng& rng, std::vector<uint8_t>* wire) {
  if (wire->empty()) {
    return;
  }
  switch (rng.NextBelow(4)) {
    case 0: {  // flip one bit
      const size_t pos = rng.NextBelow(wire->size());
      (*wire)[pos] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      break;
    }
    case 1: {  // overwrite a random byte
      (*wire)[rng.NextBelow(wire->size())] =
          static_cast<uint8_t>(rng.Next() & 0xff);
      break;
    }
    case 2:  // truncate at a random point
      wire->resize(rng.NextBelow(wire->size()));
      break;
    default: {  // splice random garbage at a random offset
      const size_t pos = rng.NextBelow(wire->size() + 1);
      const size_t n = rng.NextBelow(16) + 1;
      std::vector<uint8_t> junk(n);
      for (uint8_t& b : junk) {
        b = static_cast<uint8_t>(rng.Next() & 0xff);
      }
      wire->insert(wire->begin() + static_cast<ptrdiff_t>(pos), junk.begin(),
                   junk.end());
      break;
    }
  }
}

TEST(ServerProtocolTest, AdversarialStreamsFailTyped) {
  Rng rng(20260808);
  const ProtocolLimits limits;  // server defaults
  size_t streams_ok = 0;
  size_t streams_torn = 0;
  size_t streams_typed_error = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> wire = RandomValidStream(rng);
    // Half the iterations mutate 1-3 times; half stay valid (so the
    // consumption loop's happy path is continuously exercised too).
    if (rng.NextBool(0.5)) {
      const size_t mutations = rng.NextBelow(3) + 1;
      for (size_t m = 0; m < mutations; ++m) {
        Mutate(rng, &wire);
      }
    }
    // Consume exactly as the server does: extract frames until the
    // buffer is exhausted, needs more bytes, or framing dies.
    std::span<const uint8_t> rest(wire);
    bool framing_error = false;
    bool decode_error = false;
    size_t guard = 0;
    while (!rest.empty()) {
      ASSERT_LT(++guard, 10000u) << "consumption loop did not terminate";
      FrameView frame;
      Status error;
      const FrameResult r = ExtractFrame(rest, limits, &frame, &error);
      if (r == FrameResult::kNeedMore) {
        ++streams_torn;
        break;
      }
      if (r == FrameResult::kError) {
        // The one and only framing failure mode: typed corruption.
        ASSERT_TRUE(error.IsCorruption()) << error.ToString();
        framing_error = true;
        break;
      }
      ASSERT_GT(frame.frame_bytes, 0u);
      ASSERT_LE(frame.frame_bytes, rest.size());
      Request req;
      const Status s = DecodeRequest(frame, limits, &req);
      if (!s.ok()) {
        ASSERT_TRUE(s.IsCorruption() || s.IsInvalidArgument())
            << s.ToString();
        decode_error = true;
      }
      rest = rest.subspan(frame.frame_bytes);
    }
    if (framing_error || decode_error) {
      ++streams_typed_error;
    } else if (rest.empty()) {
      ++streams_ok;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GT(streams_ok, 1000u);
  EXPECT_GT(streams_torn, 100u);
  EXPECT_GT(streams_typed_error, 1000u);
}

}  // namespace
}  // namespace pnw::server
