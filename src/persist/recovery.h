#ifndef PNW_PERSIST_RECOVERY_H_
#define PNW_PERSIST_RECOVERY_H_

#include <cstddef>

namespace pnw::persist {

/// Knobs for ShardedPnwStore::Open(dir, ...), which hands them to
/// PnwStore::Open(path, ...) for every shard of the committed generation.
/// The defaults give the full durability contract: replay everything the
/// op-log captured since the snapshot, then keep logging.
///
/// What replay reproduces: every write-side counter of the operations it
/// replays (puts, updates, deletes, the bits, words, lines and simulated
/// device time they wrote, placements, pool fallbacks, retrains,
/// extensions, migrations), together with the device bytes, the wear
/// histograms and the pool. What it does not: `failed_ops` of a write that
/// failed after the snapshot (it leaves no record), and the read counters
/// (`gets`, `get_misses`, `optimistic_gets`, `locked_gets`,
/// `optimistic_retries`, `get_device_ns`), since reads are not logged; all
/// of these keep their snapshot values. Of the two measured wall-clock
/// fields, `predict_wall_ns` adds replay's own predicts and `log_wall_ns`
/// keeps its snapshot value, since replay appends nothing.
struct RecoveryOptions {
  /// Replay `<snapshot path> + ".oplog"` (if present) on top of the
  /// snapshot, truncating a torn tail first. Disable to recover exactly
  /// the checkpointed state and ignore later writes.
  bool replay_op_log = true;

  /// Re-attach the op-log after recovery so subsequent PUT/UPDATE/DELETE
  /// keep being captured (appending after the replayed records). Disable
  /// for read-only forensics on a checkpoint. Requires replay_op_log:
  /// Open rejects attaching without replay as InvalidArgument, because a
  /// record appended behind ones the served state never saw could not
  /// replay later.
  bool attach_op_log = true;

  /// Group-fsync interval handed to the re-attached op-log writer: one
  /// fdatasync per this many appended records (1 = sync every record).
  size_t op_log_sync_every = 32;
};

}  // namespace pnw::persist

#endif  // PNW_PERSIST_RECOVERY_H_
