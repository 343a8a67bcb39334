// The StoreMetrics ledger, declared once. Each X(type, name) line is one
// field; every consumer (the struct itself, Accumulate, ToString, the
// checkpoint codec, the server's STATS map, ycsb_runner's remote
// reconcile, and the lints in scripts/lint/) expands these lists with its
// own X, so adding a counter is one line here.
//
// Thread-safety: the read-side slots are RelaxedCounter because GETs run
// under a *shared* per-shard lock, or under none on the seqlock path; every
// plain field is written only by mutating operations, which hold the
// exclusive lock.
#ifndef PNW_CORE_STORE_METRICS_FIELDS_H_
#define PNW_CORE_STORE_METRICS_FIELDS_H_

// Monotonic counters, in checkpoint-codec order: EncodeStoreMetrics
// writes exactly these, so appending, removing or reordering an entry
// changes the snapshot schema (scripts/lint/snapshot_schema_lint.py then
// demands a kSnapshotVersion bump).
//
// Reconciliation identities (checked by ycsb_runner after every mix and
// by the tests):
//   gets + get_misses == reads the store served
//   gets == optimistic_gets + locked_gets
//   predicted_placements + fallback_placements + inplace_updates == puts
//   puts + failed_ops == client writes
//   puts + migrations + gap_moves == physical bucket writes
#define PNW_STORE_COUNTERS(X)                                                \
  X(uint64_t, puts)                                                          \
  /* GETs that returned a value; a GET that found nothing is a miss. */     \
  X(RelaxedCounter<uint64_t>, gets)                                          \
  /* Read-path split of `gets`: seqlock optimistic hits vs hits served */   \
  /* under the shared lock. */                                               \
  X(RelaxedCounter<uint64_t>, optimistic_gets)                               \
  X(RelaxedCounter<uint64_t>, locked_gets)                                   \
  /* Seqlock conflicts (validation failure or traversal overflow) that */   \
  /* retried or fell back to the lock. Not reads: the contention gauge. */  \
  X(RelaxedCounter<uint64_t>, optimistic_retries)                            \
  /* GETs that returned no value: index NotFound, or a bucket holding */    \
  /* another key. An expected outcome, so not folded into failed_ops. */    \
  X(RelaxedCounter<uint64_t>, get_misses)                                    \
  X(uint64_t, deletes)                                                       \
  X(uint64_t, updates)                                                       \
  /* Failed write-path operations (the write path owns this counter). */    \
  X(uint64_t, failed_ops)                                                    \
  /* NVM cells updated by PUT traffic (payload + flag + index), and the */  \
  /* payload bits those PUTs carried: the paper's bits per 512 written. */  \
  X(uint64_t, put_bits_written)                                              \
  X(uint64_t, put_payload_bits)                                              \
  X(uint64_t, put_lines_written)                                             \
  X(uint64_t, put_words_written)                                             \
  /* Simulated device time of PUTs / GETs / DELETEs. A key-mismatch GET */  \
  /* miss has already paid for its bucket read. */                           \
  X(double, put_device_ns)                                                   \
  X(RelaxedCounter<double>, get_device_ns)                                   \
  X(double, delete_device_ns)                                                \
  /* Measured wall-clock time in model Predict() calls, and in op-log */    \
  /* appends (zero while no log is attached). Never added to the */         \
  /* simulated device time above. */                                         \
  X(double, predict_wall_ns)                                                 \
  X(double, log_wall_ns)                                                     \
  /* Placement attribution: PUTs placed by a trained model vs model-less */ \
  /* (cluster 0, DCW behaviour), and latency-first in-place updates, */     \
  /* which count as puts but never consulted the address pool. */           \
  X(uint64_t, predicted_placements)                                          \
  X(uint64_t, fallback_placements)                                           \
  X(uint64_t, inplace_updates)                                               \
  /* Predicted cluster empty, placed in the next-nearest one. */            \
  X(uint64_t, pool_fallbacks)                                                \
  X(uint64_t, retrains)                                                      \
  /* Background retrains that ended in an error (the stale model stays). */ \
  X(uint64_t, failed_retrains)                                               \
  X(uint64_t, extensions)                                                    \
  /* Endurance layer: hot buckets re-placed into colder addresses, */       \
  /* Start-Gap copies, and the simulated device time of both. */            \
  X(uint64_t, migrations)                                                    \
  X(uint64_t, gap_moves)                                                     \
  X(double, wear_device_ns)

// Arena-allocator gauges, summed over the store's arenas (device data
// array, DRAM index, bucket staging). Snapshots refreshed by
// PnwStore::RefreshArenaStats() before aggregation: they describe
// process RAM, not store history, so the codec does not serialize them.
// Reconciliation: arena_live_bytes <= arena_high_water_bytes <=
// arena_slab_bytes.
#define PNW_STORE_GAUGES(X)                        \
  X(RelaxedCounter<uint64_t>, arena_slabs)         \
  X(RelaxedCounter<uint64_t>, arena_slab_bytes)    \
  X(RelaxedCounter<uint64_t>, arena_live_bytes)    \
  X(RelaxedCounter<uint64_t>, arena_high_water_bytes)

// The whole ledger, in declaration order.
#define PNW_STORE_METRICS(X) PNW_STORE_COUNTERS(X) PNW_STORE_GAUGES(X)

#endif  // PNW_CORE_STORE_METRICS_FIELDS_H_
