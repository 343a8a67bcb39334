#ifndef PNW_NVM_NVM_DEVICE_H_
#define PNW_NVM_NVM_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/nvm/latency_model.h"
#include "src/util/arena.h"
#include "src/util/status.h"

namespace pnw::nvm {

/// Word size for "NVM word writes" accounting (the paper counts modified
/// words within a cache line): one uint64_t, which is also the unit the
/// differential write diffs in.
inline constexpr size_t kWordBytes = 8;

/// Configuration of a simulated PCM device.
struct NvmConfig {
  /// Capacity in bytes.
  size_t size_bytes = 1 << 20;
  /// Cache line size; every write is accounted at this granularity. Must
  /// be a positive multiple of kWordBytes, so no word straddles a line.
  size_t cache_line_bytes = 64;
  /// Keep a per-bit write counter (memory-heavy: 2 bytes per stored bit).
  /// Needed only by the wear-leveling experiments (paper Fig. 13).
  bool track_bit_wear = false;
  /// Latency parameters for the simulated device.
  LatencyParams latency;
};

/// Accounting record returned by every write.
struct WriteResult {
  /// NVM cells actually updated (bits whose value changed, or all bits for a
  /// conventional write).
  uint64_t bits_written = 0;
  /// Words containing at least one updated bit.
  uint64_t words_written = 0;
  /// Cache lines containing at least one updated bit.
  uint64_t lines_written = 0;
  /// Cache lines read (read-before-write schemes pay this).
  uint64_t lines_read = 0;
  /// Simulated elapsed time of the operation.
  double latency_ns = 0.0;
};

/// Cumulative device counters.
struct NvmCounters {
  uint64_t total_bits_written = 0;
  uint64_t total_words_written = 0;
  uint64_t total_lines_written = 0;
  uint64_t total_lines_read = 0;
  uint64_t total_write_ops = 0;
  uint64_t total_read_ops = 0;
  /// Total payload bits passed to write operations (denominator of the
  /// paper's "bit updates per 512 bits written" metric).
  uint64_t total_payload_bits = 0;
  double total_latency_ns = 0.0;
};

/// Byte-addressable simulated PCM.
///
/// The device is the *single source of truth* for wear accounting: every
/// write scheme and every K/V store in this repository mutates memory only
/// through `WriteConventional` / `WriteDifferential`, so bit-flip, word, and
/// cache-line counts are always computed by the same code. It keeps them
/// as totals (`counters()`) and, with `track_bit_wear`, per bit (Fig. 13);
/// wear per bucket (Fig. 12, migration) is nvm::WearTracker's.
///
/// Thread-compatible: callers serialize access (the PNW store does; the
/// bench harnesses are single-threaded per device).
class NvmDevice {
 public:
  explicit NvmDevice(const NvmConfig& config);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  size_t size() const { return size_; }
  const NvmConfig& config() const { return config_; }

  /// Allocator counters of the arena backing the simulated array (one big
  /// lifetime allocation: slabs/high-water, no churn).
  util::ArenaStats arena_stats() const { return arena_.Stats(); }

  /// Copy `out.size()` bytes starting at `addr` into `out`: ChargeRead of
  /// the range plus the copy.
  /// Fails with InvalidArgument if the range is out of bounds.
  Status Read(uint64_t addr, std::span<uint8_t> out);

  /// Charge a read of `len` bytes at `addr` to the cumulative counters
  /// (lines read, one read op, its simulated latency) exactly as Read()
  /// does, copying nothing. For callers that need the modeled NVM read but
  /// not its bytes. Fails with InvalidArgument, charging nothing, if the
  /// range is out of bounds.
  Status ChargeRead(uint64_t addr, size_t len);

  /// Zero-cost inspection of device content (no latency or counter effects);
  /// used by tests and by the PNW model trainer, which the paper places on
  /// the DRAM side reading the data zone.
  std::span<const uint8_t> Peek(uint64_t addr, size_t len) const;

  /// Simulated cost in ns of reading `len` bytes at `addr` (the cache lines
  /// the range spans), without copying anything or touching the cumulative
  /// counters. The concurrent GET path pairs this with Peek() so shared-lock
  /// readers never mutate device state; the cost lands in the store's own
  /// (atomic) StoreMetrics::get_device_ns instead of `counters()`.
  double ReadCostNs(uint64_t addr, size_t len) const;

  /// Conventional write: every cell in the range is rewritten, so wear is
  /// charged for every bit regardless of whether its value changed.
  Result<WriteResult> WriteConventional(uint64_t addr,
                                        std::span<const uint8_t> data);

  /// Differential (read-modify-write / DCW-style) write: only cells whose
  /// value differs are updated. Charges a read of the covered lines plus a
  /// write of the dirtied lines.
  Result<WriteResult> WriteDifferential(uint64_t addr,
                                        std::span<const uint8_t> data);

  const NvmCounters& counters() const { return counters_; }
  void ResetCounters();

  /// The entire simulated memory, for checkpointing (equivalent to
  /// Peek(0, size()); no latency or counter effects).
  std::span<const uint8_t> Contents() const {
    return std::span<const uint8_t>(data_, size_);
  }

  /// Restore a checkpointed device verbatim: contents, cumulative
  /// counters, and the per-bit wear counts (`bit_counts` must be empty
  /// exactly when the device was configured without `track_bit_wear`).
  /// Every span length must match this device's geometry -- a mismatch is
  /// Corruption and leaves the device untouched.
  Status RestoreState(std::span<const uint8_t> contents,
                      const NvmCounters& counters,
                      std::span<const uint16_t> bit_counts);

  /// Testing hook: make upcoming write operations fail. The next `skip`
  /// writes succeed normally, then `count` writes fail with
  /// Status::Internal *before* any cell is modified or any counter is
  /// charged (modelling a write that the controller rejects whole). Reads
  /// and Peek are unaffected. Callers (the PNW store) must leave their own
  /// state consistent when a write fails mid-operation -- that is exactly
  /// what the fault-injection tests check.
  void InjectWriteFaults(uint64_t skip, uint64_t count) {
    fault_skip_ = skip;
    fault_count_ = count;
  }

  /// Per-bit cumulative write counts; empty unless
  /// `config.track_bit_wear` was set. Index = bit offset in the device.
  const std::vector<uint16_t>& bit_write_counts() const {
    return bit_write_counts_;
  }

  const LatencyModel& latency_model() const { return latency_model_; }

 private:
  Status CheckRange(uint64_t addr, size_t len) const;
  /// Cache lines a read of `len` bytes at `addr` spans (one for an empty
  /// range).
  uint64_t LinesSpanned(uint64_t addr, size_t len) const;
  /// Consumes one armed write fault, if any (see InjectWriteFaults).
  Status ConsumeWriteFault();

  /// Differential inner loop on the 8-byte word grid (one dirty_mask64
  /// pass per 64-word block, then a walk of the dirty words): diff `data`
  /// against the resident bytes, store the changed words, and account
  /// bits/words/lines (plus per-bit wear when tracked) into `result`.
  void DiffWords(uint64_t addr, std::span<const uint8_t> data,
                 WriteResult* result);

  uint64_t fault_skip_ = 0;
  uint64_t fault_count_ = 0;
  NvmConfig config_;
  LatencyModel latency_model_;
  /// The simulated array lives in an mmap'd arena slab, not a
  /// std::vector: one contiguous allocation whose pages are never
  /// recycled, which the seqlock read path relies on.
  util::Arena arena_;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::vector<uint16_t> bit_write_counts_;
  NvmCounters counters_;
};

}  // namespace pnw::nvm

#endif  // PNW_NVM_NVM_DEVICE_H_
