// Seeded violations for status_discipline_lint.py (fixture: linted, never
// built). The mini Status/Result here stand in for src/util/status.h.
namespace pnw {

class Status {
 public:
  bool ok() const { return true; }
  static Status OK() { return Status(); }
};

template <typename T>
class Result {
 public:
  const T& value() const { return value_; }

 private:
  T value_{};
};

Status Flaky();
Result<int> Fetch();

}  // namespace pnw

extern "C" int fsync(int fd);

namespace pnw {

void Caller() {
  Flaky();        // seeded: bare discarded Status
  (void)Fetch();  // seeded: (void) drop without a justification comment
  (void)fsync(3);  // seeded: best-effort syscall dropped, no justification
}

}  // namespace pnw
