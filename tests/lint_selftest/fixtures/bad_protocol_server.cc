// Seeded violation for protocol_exhaustiveness_lint.py: the server
// dispatch switch does not handle Opcode::kPing (fixture: linted, never
// built).
enum class Opcode : unsigned char {
  kGet = 1,
  kPut = 2,
  kPing = 3,
};

struct Server {
  int ExecuteOne(unsigned char opcode);
};

int Server::ExecuteOne(unsigned char opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kGet:
      return 1;
    case Opcode::kPut:
      return 2;
    default:  // seeded: kPing unhandled
      return 0;
  }
}
