// Lint self-test fixture: a ServerMetrics field list with one counter
// (`orphan_server_counter`) that the paired surface fixture never
// references. The metrics-reconcile lint must report exactly that field.
// Never compiled; consumed only by tests/lint_selftest/run_selftest.py.

#define FIXTURE_SERVER_METRICS(X) \
  X(Counter, frames_in)           \
  X(Counter, frames_out)          \
  X(Counter, dropped_responses)   \
  /* Seeded violation: no reconciliation identity checks this. */ \
  X(Counter, orphan_server_counter)
