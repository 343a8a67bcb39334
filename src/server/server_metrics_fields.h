// The ServerMetrics ledger, declared once. Each X(type, name) line is one
// event-loop counter; the struct, ServerMetrics::ToString, the STATS
// opcode's map and scripts/lint/metrics_reconcile_lint.py all expand this
// list, so adding a counter is one line here.
//
// Reconciliation identities (asserted by tests/server_e2e_test.cc and the
// ycsb_runner --remote reconcile lines):
//   frames_in == frames_out + dropped_responses      (every decoded frame
//       gets exactly one response, delivered or dropped with its
//       connection)
//   get_keys == StoreMetrics gets + get_misses       (sole-client server)
//   put_keys == StoreMetrics puts + failed_ops
//   delete_keys == client delete hits + misses; store deletes ==
//       client delete hits + store updates (endurance-first updates are
//       internally DELETE + PUT)
//   batched_keys == get_keys + put_keys + delete_keys (every forwarded
//       key went through exactly one store call; batched_keys /
//       store_batches is the amortization the group commit actually saw).
#ifndef PNW_SERVER_SERVER_METRICS_FIELDS_H_
#define PNW_SERVER_SERVER_METRICS_FIELDS_H_

#define PNW_SERVER_METRICS(X)                                               \
  X(Counter, connections_accepted)                                          \
  X(Counter, connections_closed)                                            \
  /* Frames decoded (valid frame + known opcode), and response frames */   \
  /* fully written to a socket. */                                          \
  X(Counter, frames_in)                                                     \
  X(Counter, frames_out)                                                    \
  X(Counter, bytes_in)                                                      \
  X(Counter, bytes_out)                                                     \
  /* Responses enqueued whose connection died before the bytes left. */    \
  X(Counter, dropped_responses)                                             \
  /* Keys forwarded to the store, by operation (one per frame; a */         \
  /* rejected frame counts none). */                                        \
  X(Counter, get_keys)                                                      \
  X(Counter, put_keys)                                                      \
  X(Counter, delete_keys)                                                   \
  X(Counter, stats_frames)                                                  \
  /* Pipelining: store calls issued, the keys they carried, and the */     \
  /* largest one (a run of adjacent pipelined GETs or PUTs is one call; */ \
  /* a DELETE is a call of one key). */                                     \
  X(Counter, store_batches)                                                 \
  X(Counter, batched_keys)                                                  \
  X(Counter, max_batch_keys)                                                \
  /* Frames answered kOverloaded under the global budget (typed reject; */ \
  /* the store was never touched). */                                       \
  X(Counter, overload_rejects)                                              \
  /* Streams that died to a framing error (bad length/version/flags): */   \
  /* the connection closes, nothing is answered. */                         \
  X(Counter, protocol_errors)                                               \
  /* Well-framed frames whose payload failed to decode: answered with */   \
  /* the typed error, stream kept. */                                       \
  X(Counter, decode_errors)                                                 \
  /* Slow-reader valve engagements / releases (reads paused past */        \
  /* per_conn_outbuf_limit, resumed on drain). */                           \
  X(Counter, slow_reader_stalls)                                            \
  X(Counter, slow_reader_resumes)

#endif  // PNW_SERVER_SERVER_METRICS_FIELDS_H_
