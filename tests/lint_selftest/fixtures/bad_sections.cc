// Seeded violations for snapshot_schema_lint.py section symmetry (fixture:
// linted, never built, so it need not compile standalone).
namespace {
constexpr unsigned kSectionAlpha = 1;
constexpr unsigned kSectionGhost = 2;
}  // namespace

void WriteSnapshot(SnapshotWriter& snap) {
  {
    auto& w = snap.AddSection(kSectionAlpha);
    w.PutU64(1);
    w.PutU32(2);
  }
  {
    // Seeded: this section has no Section(kSectionGhost) reader.
    auto& w = snap.AddSection(kSectionGhost);
    w.PutU64(3);
  }
}

bool ReadSnapshot(const SnapshotReader& snap) {
  unsigned long a = 0;
  unsigned b = 0;
  {
    auto section = snap.Section(kSectionAlpha);
    auto& r = section.value();
    // Seeded: fields read back in the opposite order from the writer.
    if (!r.GetU32(&b)) {
      return false;
    }
    if (!r.GetU64(&a)) {
      return false;
    }
  }
  return a != 0 && b != 0;
}
