// Seeded violations for snapshot_schema_lint.py codec symmetry (fixture:
// linted, never built).
struct BufferWriter {
  void PutU64(unsigned long v);
  void PutU32(unsigned v);
};

struct BufferReader {
  bool GetU64(unsigned long* v);
  bool GetU32(unsigned* v);
};

struct Thing {
  unsigned long a = 0;
  unsigned b = 0;
};

void EncodeThing(const Thing& t, BufferWriter& w) {
  w.PutU64(t.a);
  w.PutU32(t.b);
}

bool DecodeThing(BufferReader& r, Thing* t) {
  // Seeded: fields read back in the opposite order from EncodeThing.
  if (!r.GetU32(&t->b)) {
    return false;
  }
  if (!r.GetU64(&t->a)) {
    return false;
  }
  return true;
}

// Seeded: bytes written that no DecodeOrphan ever reads back.
void EncodeOrphan(const Thing& t, BufferWriter& w) {
  w.PutU64(t.a);
}
