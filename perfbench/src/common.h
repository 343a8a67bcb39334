// Shared scaffolding of the PNW benchmark: the workload interface the
// main program (main.cc) runs, the per-client logs a measured phase fills, the
// counters a phase leaves behind, deterministic value generation with
// embedded (key, version) stamps, the replays shared by every workload,
// and the metric report.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/model_manager.h"
#include "src/core/sharded_store.h"
#include "src/util/status.h"
#include "trace.h"

namespace perfbench {

/// Size class of a run: `full` is the benchmark proper, `small` the
/// determinism self-test (same code paths, a fraction of the data).
enum class Scale { kFull, kSmall };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Scratch directory for op-logs, checkpoints and the span dump.
  std::string work_dir;
};

/// One metric of the report, with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  /// Record a failed correctness or reconcile check, counting `count`
  /// failed operations.
  void Fail(const std::string& what, uint64_t count = 1);
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return check_failures_.empty(); }
  /// Human-readable table, then one JSON object on the last line.
  void Print(const std::string& workload, bool trace) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> check_failures_;
  std::vector<std::string> notes_;
};

/// SplitMix64 finalizer: the benchmark's one hash for deriving seeds and
/// spreading keys.
uint64_t Mix64(uint64_t x);

/// Resident set size of this process in MiB (/proc/self/statm).
double RssMib();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per Step() (best effort), and gives it back all of them when
/// destroyed. On a shared host each virtual CPU runs at its own drifting
/// speed; a single client that visits every CPU measures their average
/// instead of whichever one it happened to start on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU of the rotation.
  void Step();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Median of a small sample.
double Median(std::vector<double> values);

/// Deterministic values with an embedded stamp: bytes [0, 8) hold the key
/// and [8, 16) the version, the rest comes from a pool of generated
/// payloads picked by hashing (key, version). Version 0 of key k maps to
/// boot[k] instead when a bootstrap set is given (the paper's "old data").
class ValueFactory {
 public:
  ValueFactory() = default;
  ValueFactory(std::vector<std::vector<uint8_t>> pool,
               std::vector<std::vector<uint8_t>> boot);

  size_t value_bytes() const { return value_bytes_; }
  /// The stamped bootstrap values, boot()[k] == Make(k, 0).
  const std::vector<std::vector<uint8_t>>& boot() const { return boot_; }
  /// Writes the value of (key, version) into `out` (value_bytes long).
  void Fill(uint64_t key, uint64_t version, std::span<uint8_t> out) const;
  std::vector<uint8_t> Make(uint64_t key, uint64_t version) const;
  /// True when `got` is exactly the value of (key, version).
  bool Matches(uint64_t key, uint64_t version,
               std::span<const uint8_t> got) const;

 private:
  std::span<const uint8_t> Payload(uint64_t key, uint64_t version) const;

  size_t value_bytes_ = 0;
  std::vector<std::vector<uint8_t>> pool_;
  std::vector<std::vector<uint8_t>> boot_;
};

/// `count` clusterable values of `bytes` bytes: 8 random prototypes, each
/// sample a prototype with a few bytes perturbed.
std::vector<std::vector<uint8_t>> GenerateClusteredValues(size_t count,
                                                          size_t bytes,
                                                          uint64_t seed);

/// Limits of one measured phase.
struct RunLimits {
  double seconds = 10.0;
  /// Per-client cap on operations (0 = none). The traced run and its
  /// untraced twin share the cap so their throughputs compare.
  uint64_t max_ops_per_client = 0;
};

/// A write acknowledged during a traced phase; replays regenerate its
/// value from the ValueFactory.
struct WrittenValue {
  uint64_t key = 0;
  uint64_t version = 0;
};

/// Cap on the written-value and read-key records a traced client keeps.
inline constexpr size_t kReplayCap = 20000;

/// Windows a timed phase is split into; the end-to-end timings are the
/// median over windows, so a burst of interference from other tenants of
/// the host moves one window, not the result.
inline constexpr int kWindows = 10;

/// Everything one client thread observed in a measured phase.
struct ClientLog {
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  /// Ops answered with an error status or refused (kOverloaded).
  uint64_t failed = 0;
  /// GETs whose value was not the client's last acknowledged write.
  uint64_t mismatches = 0;
  /// Traced phase only: inputs kept for the per-layer replays (capped).
  std::vector<WrittenValue> written;
  std::vector<uint64_t> read_keys;
  std::unique_ptr<Tracer> tracer;

  /// Latencies and op count of one measurement window.
  struct Window {
    LatencyHistogram put;  // write (PUT/UPDATE) latencies
    LatencyHistogram get;
    uint64_t ops = 0;
  };
  /// kWindows windows; latencies land in windows[closed] while the
  /// windows run (see PhaseResult::StartWindows), nowhere before.
  std::vector<Window> windows;
  size_t closed = 0;
  uint64_t window_ns = 0;  // 0 until the windows start
  uint64_t next_mark_ns = 0;
  uint64_t window_base_ops = 0;

  void RecordPut(uint64_t ns) {
    if (window_ns != 0 && closed < windows.size()) {
      windows[closed].put.Record(ns);
    }
  }
  void RecordGet(uint64_t ns) {
    if (window_ns != 0 && closed < windows.size()) {
      windows[closed].get.Record(ns);
    }
  }

  /// Closes every window that ended before `now`; call after each op.
  void Tick(uint64_t now) {
    while (window_ns != 0 && closed < windows.size() && now >= next_mark_ns) {
      windows[closed++].ops = ops - window_base_ops;
      window_base_ops = ops;
      next_mark_ns += window_ns;
    }
  }

  /// Keeps a replay record while under kReplayCap (traced phase only).
  void RecordWrite(uint64_t key, uint64_t version) {
    if (tracer != nullptr && written.size() < kReplayCap) {
      written.push_back({key, version});
    }
  }
  void RecordRead(uint64_t key) {
    if (tracer != nullptr && read_keys.size() < kReplayCap) {
      read_keys.push_back(key);
    }
  }
};

struct PhaseResult {
  double seconds = 0.0;
  std::vector<ClientLog> clients;
  double window_seconds = 0.0;

  /// Starts kWindows windows of `seconds / kWindows` each at `t0`.
  void StartWindows(uint64_t t0, double seconds);

  uint64_t Ops() const;
  uint64_t Reads() const;
  uint64_t Writes() const;
  uint64_t Deletes() const;
  uint64_t Failed() const;
  uint64_t Mismatches() const;
};

/// Creates `n` client logs with their windows, each with a tracer when
/// `traced`. Everything a phase records into is allocated here, before
/// set-up, so rss_mib does not count it.
PhaseResult NewPhase(size_t n, bool traced, uint64_t ops_per_client);

/// Program counters of one measured phase, read from public accessors.
struct LayerCounters {
  /// StoreMetrics over the whole phase.
  pnw::core::StoreMetrics store;
  /// StoreMetrics over the deterministic scoring window (the first N
  /// writes) where the workload has one, else the whole phase. Count
  /// metrics (bits, lines, placements) come from here.
  pnw::core::StoreMetrics window;
  double put_imbalance = 1.0;
  double wear_max_over_mean = 0.0;
  uint64_t arena_slab_bytes = 0;
  uint64_t arena_live_bytes = 0;
  /// Wire workload: ServerMetrics deltas over the phase.
  bool wire = false;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t dropped_responses = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t store_batches = 0;
  uint64_t batched_keys = 0;
  uint64_t overload_rejects = 0;
  uint64_t protocol_errors = 0;
  /// Durable workload: op-log file bytes over the value bytes they hold.
  double log_bytes_per_user_byte = 0.0;
};

/// One benchmark workload. main.cc calls Generate once, then for each
/// store it measures: NewPhase, Setup, Run, Snapshot, (traced: Replay),
/// Check, Teardown.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from the seed. Runs before any timer starts.
  virtual void Generate() = 0;
  /// Store open through bootstrap, training, preload and first
  /// checkpoint -- exactly what setup_s times. `tracer` is non-null in
  /// the traced run.
  virtual pnw::Status Setup(Tracer* tracer) = 0;
  /// The measured closed loop, over Clients() client logs of `phase`
  /// (traced when they hold tracers); sets phase.seconds.
  virtual void Run(const RunLimits& limits, PhaseResult& phase) = 0;
  /// Reads the phase's program counters into counters().
  virtual void Snapshot(const PhaseResult& phase) = 0;
  /// Replays the phase's own inputs through single layers' public
  /// functions, spanning each call. Runs on the quiesced store.
  virtual void Replay(const PhaseResult& phase, Tracer* tracer) = 0;
  /// Correctness and reconcile checks over the phase; failures go to
  /// `report`. May drop and reopen the store.
  virtual void Check(const PhaseResult& phase, Report& report) = 0;
  /// Releases the store and everything Setup built.
  virtual void Teardown() = 0;
  /// Client threads of the closed loop.
  virtual size_t Clients() const = 0;
  /// Per-client op cap of the traced run and its untraced twin.
  virtual uint64_t TracedOpsPerClient() const = 0;

  const LayerCounters& counters() const { return counters_; }

 protected:
  LayerCounters counters_;
  /// Replay calls whose status was not OK (reported by Check).
  uint64_t replay_errors_ = 0;
};

std::unique_ptr<Workload> MakePaperReplace(const Args& args);
std::unique_ptr<Workload> MakeYcsbWire(const Args& args);
std::unique_ptr<Workload> MakeYcsbDurable(const Args& args);

/// The replays every workload shares:
///  - ml.predict: ValueModel::Predict on each written value;
///  - index.get: DramHashIndex::Get of each read key over an index built
///    from keys [0, index_keys);
///  - nvm.diff: NvmDevice::WriteDifferential of each written value over a
///    resident bootstrap value on a scratch device of `device_buckets`
///    buckets.
struct CoreReplay {
  const ValueFactory* values = nullptr;
  /// Model serving `key`; null when the store placed model-less.
  std::function<const pnw::core::ValueModel*(uint64_t key)> model_for;
  uint64_t index_keys = 0;
  size_t device_buckets = 0;
};
/// Returns the number of replayed calls that failed.
uint64_t ReplayCoreLayers(const PhaseResult& phase, const CoreReplay& replay,
                          Tracer* tracer);

/// ReplayCoreLayers over a sharded store: each key's value is predicted by
/// the serving model of its shard.
uint64_t ReplayShardedCoreLayers(pnw::core::ShardedPnwStore& store,
                                 const ValueFactory& values,
                                 uint64_t index_keys, size_t device_buckets,
                                 const PhaseResult& phase, Tracer* tracer);

/// The store counters of a sharded workload: totals (also the scoring
/// window), put imbalance, hottest bucket over the mean, arena bytes.
LayerCounters ShardedCounters(const pnw::core::ShardedPnwStore& store);

/// The per-layer metrics of a traced run, every one on every workload (0
/// where the workload does not exercise the layer).
void EmitLayerMetrics(const LayerCounters& c,
                      const std::vector<SpanSummary>& spans, Report& report);

/// The counter identities every workload shares -- store reads, writes
/// and deletes against what the clients sent -- plus the replay errors.
void CheckStoreIdentities(const PhaseResult& phase, const LayerCounters& c,
                          uint64_t replay_errors, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
