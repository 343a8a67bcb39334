#ifndef PNW_CORE_PNW_OPTIONS_H_
#define PNW_CORE_PNW_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/nvm/latency_model.h"

namespace pnw::core {

/// Where the key->address index lives (paper Fig. 2).
enum class IndexPlacement {
  /// Fig. 2a: index in DRAM. No NVM bit flips from indexing; the index must
  /// be rebuilt from the data zone after a crash.
  kDram,
  /// Fig. 2b: write-friendly path-hashing index persisted in PCM -- the
  /// paper's evaluation setup ("the worst case scenario ... in terms of
  /// extra bit flips introduced by write amplification").
  kNvmPathHash,
};

/// How UPDATE is executed (paper Section V-B3).
enum class UpdateMode {
  /// DELETE + PUT through the model: maximizes endurance (paper default).
  kEnduranceFirst,
  /// In-place differential write through the index only: lower latency,
  /// sacrifices wear-leveling.
  kLatencyFirst,
};

/// Configuration of a PnwStore.
struct PnwOptions {
  /// Fixed value size of this store ("the unit of the value size ... can
  /// vary ranging from a word size to the size of a page").
  size_t value_bytes = 32;

  /// Buckets available at startup (the initial data zone).
  size_t initial_buckets = 1024;
  /// Device-backed ceiling the data zone can grow to via extensions.
  size_t capacity_buckets = 2048;

  /// K for the K-means model (the paper sweeps 1..30).
  size_t num_clusters = 8;
  /// Cap on the bit-feature dimension; larger values are folded
  /// (see ml::BitFeatureEncoder). 0 = one feature per bit.
  size_t max_features = 512;
  /// If nonzero, apply PCA down to this many components before clustering
  /// (the paper's recipe for large values).
  size_t pca_components = 0;
  /// Training set is a uniform sample of data-zone contents capped at this.
  size_t training_sample_cap = 2048;
  /// Byte stride for folded feature encoding; 0 = auto (scan <= 2 KiB per
  /// value so prediction latency stays bounded for page-sized values).
  size_t encode_byte_stride = 0;
  /// Threads used for (re)training (Fig. 11 compares 1 vs 4).
  size_t train_threads = 1;
  /// K-means iteration cap.
  size_t max_training_iterations = 30;

  /// Occupancy fraction that triggers data-zone extension + retraining
  /// ("setting the load factor to x percent means that when x percent of
  /// the available addresses ... are used, the K/V data zone needs to be
  /// extended").
  double load_factor = 0.90;
  /// Automatically extend/retrain when the load factor is crossed. Each
  /// retrain runs synchronously inside the PUT that triggers it. Once the
  /// zone is at capacity, retrains are paced to one per
  /// max(256, active_buckets / 4) PUTs, so a store hovering at the
  /// threshold does not retrain on every operation.
  bool auto_retrain = true;
  /// Train the bootstrap model (Algorithm 1) at the end of Bootstrap().
  /// With false the store starts model-less and every PUT places like DCW
  /// (counted in StoreMetrics::fallback_placements) until a TrainModel()
  /// succeeds -- also the state a store is left in when bootstrap training
  /// fails.
  bool train_on_bootstrap = true;

  IndexPlacement index_placement = IndexPlacement::kDram;
  UpdateMode update_mode = UpdateMode::kEnduranceFirst;

  /// Prefix each data-zone bucket with its 8-byte key. Required for crash
  /// recovery of the DRAM-index design (Fig. 2a); disable to store bare
  /// values and reproduce the paper's value-only bit-update metric (the
  /// NVM path-hash index design remains recoverable either way, since it
  /// persists keys itself).
  bool store_keys_in_data_zone = true;

  /// Keep the bucket-occupancy bitmap on NVM (recoverable, but each
  /// PUT/DELETE flips one NVM flag bit). The paper keeps availability flags
  /// in the DRAM-side dynamic address pool / hash index (Fig. 2a), so the
  /// figure harnesses disable this to match its accounting.
  bool occupancy_flags_on_nvm = true;

  /// Keep per-bit wear counters on the device (Fig. 13; memory heavy).
  bool track_bit_wear = false;

  /// Hot-bucket migration thresholds (used by MigrateHotBuckets, which
  /// ShardedPnwStore::MigrateOnce runs per shard): a resident bucket
  /// qualifies as a victim when its K/V write count is at least
  /// `migration_hot_multiplier` times the mean over the active zone...
  double migration_hot_multiplier = 4.0;
  /// ...and at least this many writes absolutely (so a cold store never
  /// churns buckets over single-digit imbalances).
  size_t migration_min_writes = 16;

  uint64_t seed = 42;
  nvm::LatencyParams latency;
};

}  // namespace pnw::core

#endif  // PNW_CORE_PNW_OPTIONS_H_
