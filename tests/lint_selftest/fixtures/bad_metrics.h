// Lint self-test fixture: a StoreMetrics field list with one counter
// (`orphan_counter`) that the paired surface fixture never references.
// The metrics-reconcile lint must report exactly that field, across both
// lists and including the list that expands the others. Never compiled;
// consumed only by tests/lint_selftest/run_selftest.py.

#define FIXTURE_STORE_COUNTERS(X) \
  X(uint64_t, puts)               \
  X(RelaxedCounter<uint64_t>, gets) \
  /* Seeded violation: no reconciliation identity checks this. */ \
  X(uint64_t, orphan_counter)

#define FIXTURE_STORE_GAUGES(X) X(double, put_device_ns)

#define FIXTURE_STORE_METRICS(X) \
  FIXTURE_STORE_COUNTERS(X) FIXTURE_STORE_GAUGES(X)
