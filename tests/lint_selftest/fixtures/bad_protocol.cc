// Seeded violations for protocol_exhaustiveness_lint.py (fixture: linted,
// never built).
//
// Seeds: OpcodeKnown's upper bound is stale (kPut, not the last member
// kPing), DecodeRequest's switch does not handle kPing, and DecodeResponse
// carries a raw wire-status range comparison instead of WireStatusKnown.
enum class Opcode : unsigned char {
  kGet = 1,
  kPut = 2,
  kPing = 3,
};

struct Status {
  enum class Code : unsigned char {
    kOk = 0,
    kOverloaded = 9,
  };
};

using uint8_t = unsigned char;

bool OpcodeKnown(uint8_t raw) {
  // Seeded: stale upper bound -- kPing was added but this still says kPut.
  return raw >= static_cast<uint8_t>(Opcode::kGet) &&
         raw <= static_cast<uint8_t>(Opcode::kPut);
}

bool WireStatusKnown(uint8_t raw) {
  return raw <= static_cast<uint8_t>(Status::Code::kOverloaded);
}

int DecodeRequest(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kGet:
      return 1;
    case Opcode::kPut:
      return 2;
    default:  // seeded: kPing falls through a default instead of a case
      return 0;
  }
}

int DecodeResponse(uint8_t opcode, uint8_t status) {
  // Seeded: a raw copy of the wire-status range check outside the
  // WireStatusKnown choke point.
  if (status > static_cast<uint8_t>(Status::Code::kOverloaded)) {
    return -1;
  }
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kGet:
      return 1;
    case Opcode::kPut:
      return 2;
    case Opcode::kPing:
      return 3;
  }
  return 0;
}

int EncodeResponse(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kGet:
      return 1;
    case Opcode::kPut:
      return 2;
    case Opcode::kPing:
      return 3;
  }
  return 0;
}
