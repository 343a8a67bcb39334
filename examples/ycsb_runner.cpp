// YCSB-style end-to-end run against the PNW store: executes the standard
// core mixes (A, B, C, D, F) over a Zipf-skewed key space and reports
// throughput-relevant store metrics per mix.
//
//   ./build/examples/ycsb_runner [--records=N] [--ops=N] [--threads=N]
//                                [--shards=N] [--checkpoint-every=N]
//                                [--checkpoint-dir=PATH]
//
// (--flag N is accepted as well as --flag=N; --help prints the flag list.)
//
// --threads/--shards drive the concurrent ShardedPnwStore front-end: each
// thread runs its own operation stream (own generator seed, own value RNG)
// and the per-shard metrics are merged into one report. Throughput is
// wall-clock kops/s; the simulated NVM device time per PUT is printed as
// its own labeled column (sim us/put) and never folded into it.
//
// --batch=N routes plain reads through ShardedPnwStore::MultiGet and
// writes (updates, inserts, and the write half of every RMW) through
// ShardedPnwStore::MultiPut in batches of N (one lock acquisition per
// involved shard per batch -- shared for reads, exclusive for writes --
// plus one group op-log append per write batch when a log is attached).
// Read-your-write order is preserved by flushing the opposite buffer
// before switching direction: enqueueing a read flushes pending writes,
// enqueueing a write flushes pending reads. Each mix row is followed by
// reconciliation lines proving the books balance: the read side
// (gets + get_misses == client reads, placement attribution sums to puts,
// optimistic + locked gets == gets), the arena gauges, and the write side
// (puts + failed_ops == client writes). The run exits nonzero if any of
// them ever fails.
//
// --checkpoint-every=N makes thread 0 checkpoint the whole sharded store
// into --checkpoint-dir every N of its operations (PR 3 durability: shard
// snapshots in parallel + per-shard op-logs), while the other threads keep
// serving -- a live-backup drill. The run reports how many checkpoints were
// taken and their total wall cost.
//
// --remote=HOST:PORT runs the same mixes against a pnw_server over the
// binary wire protocol instead of an in-process store: every thread opens
// its own connection (src/server/client.h) and --batch=N rides the
// MULTI_GET / MULTI_PUT frames. Each mix's StoreMetrics is rebuilt from
// the STATS frames before and after it and checked by the same reconcile
// lines as the local mode, plus one three-way line: client tallies == the
// server's ServerMetrics key counts == the store's StoreMetrics. Exits
// nonzero on any mismatch, exactly like the local mode.
// Local-only machinery (--checkpoint-every, --migrate-every, --start-gap,
// --wear-report) is rejected with --remote (exit 2).
//
// --start-gap=N turns on Start-Gap wear leveling under the address pool
// (gap moves every N data-zone writes per shard); --migrate-every=N makes
// thread 0 sweep the store for hot buckets every N of its ops
// (ShardedPnwStore::MigrateOnce). --wear-report prints the endurance
// ledger per shard at the end of each mix -- max/mean physical bucket
// wear, rotations, migrations -- plus a reconcile line proving client
// writes + migration copies + gap moves == device bucket writes, exiting
// nonzero on a mismatch exactly like the read/write reconcile lines.
//
// The flags exist so CTest can smoke-run the binary with tiny parameters.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/sharded_store.h"
#include "src/server/client.h"
#include "src/util/random.h"
#include "src/workloads/ycsb.h"

namespace {

size_t kRecords = 2048;
size_t kOps = 8192;
size_t kThreads = 1;
size_t kShards = 1;
size_t kBatch = 1;  // 1 = per-key Get; >1 = MultiGet batches of this size
size_t kCheckpointEvery = 0;  // 0 = checkpointing off
std::string kCheckpointDir;
size_t kStartGap = 0;      // 0 = wear leveling off; else gap-move interval
size_t kMigrateEvery = 0;  // 0 = no hot-bucket sweeps
bool kWearReport = false;
std::string kRemote;  // empty = in-process store; else "host:port"
constexpr size_t kValueBytes = 128;

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "\n"
      "  --records=N            keys preloaded per mix (default 2048)\n"
      "  --ops=N                operations per mix (default 8192)\n"
      "  --threads=N            client threads, each with its own op\n"
      "                         stream (default 1)\n"
      "  --shards=N             ShardedPnwStore shards, power of two\n"
      "                         (default 1)\n"
      "  --batch=N              issue plain reads through MultiGet and\n"
      "                         writes (incl. RMW write halves) through\n"
      "                         MultiPut in batches of N (one lock\n"
      "                         acquisition per involved shard per batch;\n"
      "                         one group op-log append per write batch).\n"
      "                         Read and write batches flush before the\n"
      "                         opposite kind so read-your-write order is\n"
      "                         preserved (default 1 = off)\n"
      "  --checkpoint-every=N   thread 0 checkpoints the store every N of\n"
      "                         its ops while the others keep serving\n"
      "                         (default off)\n"
      "  --checkpoint-dir=PATH  checkpoint directory (default: a\n"
      "                         pnw_ycsb_ckpt dir under the system temp\n"
      "                         path)\n"
      "  --start-gap=N          Start-Gap wear leveling: move the gap every\n"
      "                         N data-zone writes per shard (default 0 =\n"
      "                         off)\n"
      "  --migrate-every=N      thread 0 sweeps every shard for hot\n"
      "                         buckets every N of its ops and re-places\n"
      "                         them into cold addresses (default off)\n"
      "  --wear-report          per-shard endurance ledger after each mix:\n"
      "                         max/mean physical bucket wear, rotations,\n"
      "                         migrations, and a reconcile line (client\n"
      "                         writes + migrations + gap moves == device\n"
      "                         bucket writes) that fails the run on\n"
      "                         mismatch\n"
      "  --remote=HOST:PORT     run against a pnw_server over the binary\n"
      "                         wire protocol instead of an in-process\n"
      "                         store (one connection per thread; --batch\n"
      "                         rides MULTI_GET/MULTI_PUT frames; the\n"
      "                         reconcile lines become client == server\n"
      "                         == store, via STATS deltas). Incompatible\n"
      "                         with --checkpoint-every, --migrate-every,\n"
      "                         --start-gap, --wear-report\n"
      "  --help                 this text\n"
      "\n"
      "--flag N is accepted as well as --flag=N. Each mix row prints\n"
      "wall-clock kops/s and, separately, the simulated NVM device time\n"
      "per PUT (sim us/put). Exits nonzero if any operation fails.\n",
      argv0);
}

/// Single argv scan shared by every flag type: accepts --name=value and
/// the bare "--name value" form (exiting 2 when the value is missing).
/// Returns false when the flag is absent.
bool FindFlag(int argc, char** argv, const std::string& name,
              std::string* value) {
  const std::string prefix = "--" + name + "=";
  const std::string bare = "--" + name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      *value = arg.substr(prefix.size());
      return true;
    }
    if (arg == bare) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--%s needs a value\n", name.c_str());
        std::exit(2);
      }
      *value = argv[i + 1];
      return true;
    }
  }
  return false;
}

std::string StringFlagOr(int argc, char** argv, const std::string& name,
                         const std::string& fallback) {
  std::string value;
  return FindFlag(argc, argv, name, &value) ? value : fallback;
}

size_t FlagOr(int argc, char** argv, const std::string& name,
              size_t fallback, long min_value = 1) {
  std::string digits;
  if (!FindFlag(argc, argv, name, &digits)) {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(digits.c_str(), &end, 10);
  if (digits.empty() || *end != '\0' || parsed < min_value) {
    std::fprintf(stderr, "invalid --%s value '%s' (want an integer >= "
                         "%ld)\n", name.c_str(), digits.c_str(), min_value);
    std::exit(2);
  }
  return static_cast<size_t>(parsed);
}

/// Structured values: a handful of latent "record templates" so the
/// clustering has something to learn (uniform random values would be the
/// paper's worst case).
std::vector<uint8_t> MakeValue(uint64_t key, uint64_t version,
                               pnw::Rng& rng) {
  std::vector<uint8_t> v(kValueBytes, 0);
  const uint8_t shade = static_cast<uint8_t>((key % 8) * 32);
  for (size_t i = 0; i < kValueBytes; ++i) {
    v[i] = shade;
  }
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &version, 8);
  for (int i = 0; i < 4; ++i) {
    v[16 + rng.NextBelow(kValueBytes - 16)] =
        static_cast<uint8_t>(rng.Next());
  }
  return v;
}

/// Rebuild a full Status from a wire Status::Code (the protocol ships
/// codes, not messages).
pnw::Status StatusFromCode(pnw::Status::Code code) {
  using Code = pnw::Status::Code;
  switch (code) {
    case Code::kOk:
      return pnw::Status::OK();
    case Code::kNotFound:
      return pnw::Status::NotFound("remote");
    case Code::kOverloaded:
      return pnw::Status::Overloaded("remote");
    case Code::kInvalidArgument:
      return pnw::Status::InvalidArgument("remote");
    case Code::kOutOfSpace:
      return pnw::Status::OutOfSpace("remote");
    case Code::kCorruption:
      return pnw::Status::Corruption("remote");
    default:
      return pnw::Status::Internal("remote");
  }
}

/// The store-shaped facade over one Client connection: exactly the member
/// surface RunOpStream touches, so the same op-stream code drives an
/// in-process ShardedPnwStore or a pnw_server across the wire.
class RemoteStore {
 public:
  explicit RemoteStore(pnw::server::Client* client) : client_(client) {}

  pnw::Status Put(uint64_t key, std::span<const uint8_t> value) {
    return client_->Put(key, value);
  }
  pnw::Result<std::vector<uint8_t>> Get(uint64_t key) {
    return client_->Get(key);
  }

  std::vector<pnw::Result<std::vector<uint8_t>>> MultiGet(
      std::span<const uint64_t> keys) {
    std::vector<pnw::Result<std::vector<uint8_t>>> out;
    out.reserve(keys.size());
    auto slots = client_->MultiGet(keys);
    if (!slots.ok()) {
      for (size_t i = 0; i < keys.size(); ++i) {
        out.emplace_back(slots.status());
      }
      return out;
    }
    for (auto& [code, value] : slots.value()) {
      if (code == pnw::Status::Code::kOk) {
        out.emplace_back(std::move(value));
      } else {
        out.emplace_back(StatusFromCode(code));
      }
    }
    return out;
  }

  std::vector<pnw::Status> MultiPut(
      std::span<const uint64_t> keys,
      std::span<const std::span<const uint8_t>> values) {
    std::vector<pnw::Status> out;
    out.reserve(keys.size());
    auto codes = client_->MultiPut(keys, values);
    if (!codes.ok()) {
      for (size_t i = 0; i < keys.size(); ++i) {
        out.push_back(codes.status());
      }
      return out;
    }
    for (const pnw::Status::Code code : codes.value()) {
      out.push_back(StatusFromCode(code));
    }
    return out;
  }

 private:
  pnw::server::Client* client_;
};

struct ThreadCounts {
  /// Store-level tallies: `reads` counts every GET issued to the store
  /// (including the read half of a read-modify-write), which is what must
  /// reconcile with StoreMetrics::gets + get_misses.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t inserts = 0;
  /// Read-modify-writes executed. Each RMW contributed to *both* `reads`
  /// and `writes` above, so client ops = reads + writes + inserts - rmws
  /// (each client op counted exactly once).
  uint64_t rmws = 0;
  /// Statuses that are not ok and not a legal NotFound race outcome,
  /// counted at most once per client op (an RMW whose halves both fail is
  /// still one failed client op).
  uint64_t hard_failures = 0;

  ThreadCounts& operator+=(const ThreadCounts& other) {
    reads += other.reads;
    writes += other.writes;
    inserts += other.inserts;
    rmws += other.rmws;
    hard_failures += other.hard_failures;
    return *this;
  }
};

/// Live-checkpoint accounting (thread 0 only; see --checkpoint-every).
struct CheckpointStats {
  uint64_t taken = 0;
  uint64_t failed = 0;
  double wall_ms = 0.0;
};

/// Hot-bucket sweep accounting (thread 0 only; see --migrate-every).
struct MigrateStats {
  uint64_t passes = 0;
  uint64_t moved = 0;
  uint64_t failed = 0;
};

/// One thread's share of the run: its own generator (offset seed), its own
/// value RNG, its own version counters -- no cross-thread state besides the
/// store itself. Store is either ShardedPnwStore (in-process) or
/// RemoteStore (one wire connection); the local-only members (Checkpoint,
/// MigrateOnce) are compile-time-gated, and the flags that would reach
/// them are rejected with --remote before any stream starts.
template <typename Store>
ThreadCounts RunOpStream(Store& store,
                         pnw::workloads::YcsbWorkload workload,
                         size_t thread_id, size_t ops,
                         CheckpointStats* ckpt = nullptr,
                         MigrateStats* migrate = nullptr) {
  using pnw::workloads::YcsbOp;
  ThreadCounts counts;
  pnw::workloads::YcsbOptions gen_options;
  gen_options.workload = workload;
  gen_options.record_count = kRecords;
  gen_options.seed = 99 + 7919 * thread_id;
  pnw::workloads::YcsbGenerator gen(gen_options);
  pnw::Rng rng(1234 + thread_id);
  // Version tags carry the thread id so concurrent streams never write
  // byte-identical payloads.
  const uint64_t version_tag = static_cast<uint64_t>(thread_id) << 48;
  // Per-key write versions; sized generously and indexed modulo so
  // long-running insert-heavy streams stay in bounds (a version collision
  // only makes two payloads more similar, never incorrect).
  std::vector<uint64_t> versions(kRecords * 4, 0);
  auto version_slot = [&versions](uint64_t key) -> uint64_t& {
    return versions[key % versions.size()];
  };

  auto check = [&counts](const pnw::Status& s) {
    if (!s.ok() && !s.IsNotFound()) {
      ++counts.hard_failures;
    }
  };
  // --batch: plain reads are buffered and issued through MultiGet, writes
  // through MultiPut. At most one of the two buffers is ever non-empty:
  // enqueueing a read flushes pending writes first (the read must observe
  // them) and enqueueing a write flushes pending reads first (a read
  // enqueued before an overwrite of the same key must not observe the
  // later value), so read-your-write order holds exactly as in the
  // unbatched stream. Both buffers flush at the end of the stream.
  std::vector<uint64_t> pending_reads;
  struct PendingWrite {
    uint64_t key;
    std::vector<uint8_t> value;
    /// False for an RMW write half whose read half already charged the
    /// op's single allowed hard failure.
    bool count_fail;
  };
  std::vector<PendingWrite> pending_writes;
  std::vector<uint64_t> write_keys;
  std::vector<std::span<const uint8_t>> write_values;
  if (kBatch > 1) {
    pending_reads.reserve(kBatch);
    pending_writes.reserve(kBatch);
    write_keys.reserve(kBatch);
    write_values.reserve(kBatch);
  }
  auto flush_reads = [&store, &counts, &pending_reads] {
    if (pending_reads.empty()) {
      return;
    }
    const auto results = store.MultiGet(pending_reads);
    for (const auto& got : results) {
      if (!got.ok() && !got.status().IsNotFound()) {
        ++counts.hard_failures;
      }
    }
    counts.reads += pending_reads.size();
    pending_reads.clear();
  };
  auto flush_writes = [&store, &counts, &pending_writes, &write_keys,
                       &write_values] {
    if (pending_writes.empty()) {
      return;
    }
    write_keys.clear();
    write_values.clear();
    for (const PendingWrite& w : pending_writes) {
      write_keys.push_back(w.key);
      write_values.emplace_back(w.value);
    }
    const auto statuses = store.MultiPut(write_keys, write_values);
    for (size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok() && !statuses[i].IsNotFound() &&
          pending_writes[i].count_fail) {
        ++counts.hard_failures;
      }
    }
    pending_writes.clear();
  };
  // Enqueue-or-issue one write (an update/insert Put, or an RMW write
  // half). Failures are accounted inside (check() under count_fail), so
  // the lambda returns nothing a caller could accidentally drop.
  auto do_write = [&store, &counts, &check, &flush_reads, &pending_writes,
                   &flush_writes](uint64_t key, std::vector<uint8_t> value,
                                  bool count_fail) {
    flush_reads();
    if (kBatch > 1) {
      pending_writes.push_back(
          PendingWrite{key, std::move(value), count_fail});
      if (pending_writes.size() >= kBatch) {
        flush_writes();
      }
      return;
    }
    const pnw::Status s = store.Put(key, value);
    if (count_fail) {
      check(s);
    }
  };
  for (size_t i = 0; i < ops; ++i) {
    const YcsbOp op = gen.Next();
    switch (op.type) {
      case YcsbOp::Type::kRead:
        if (kBatch > 1) {
          flush_writes();
          pending_reads.push_back(op.key);
          if (pending_reads.size() >= kBatch) {
            flush_reads();
          }
        } else {
          if (const auto got = store.Get(op.key);
              !got.ok() && !got.status().IsNotFound()) {
            ++counts.hard_failures;
          }
          ++counts.reads;
        }
        break;
      case YcsbOp::Type::kUpdate:
        do_write(op.key,
                 MakeValue(op.key, version_tag | ++version_slot(op.key), rng),
                 /*count_fail=*/true);
        ++counts.writes;
        break;
      case YcsbOp::Type::kInsert:
        do_write(op.key, MakeValue(op.key, version_tag, rng),
                 /*count_fail=*/true);
        ++counts.inserts;
        break;
      case YcsbOp::Type::kReadModifyWrite: {
        // One client op: read the current value, write the new one. The
        // read half executes immediately (after flushing pending writes it
        // must observe); the write half goes through do_write -- enqueued
        // at batch>1. A failure of either half -- or both -- costs exactly
        // one `hard_failures`, never two: a failed read half charges it
        // here and suppresses the write half's count_fail.
        flush_writes();
        const auto current = store.Get(op.key);
        const bool read_failed =
            !current.ok() && !current.status().IsNotFound();
        if (read_failed) {
          ++counts.hard_failures;
        }
        do_write(op.key,
                 MakeValue(op.key, version_tag | ++version_slot(op.key), rng),
                 /*count_fail=*/!read_failed);
        ++counts.reads;
        ++counts.writes;
        ++counts.rmws;
        break;
      }
    }
    // Hot-bucket sweep: thread 0 paces the migrator while the other
    // threads keep serving (per-shard exclusive locks, same interlock the
    // background migrator uses).
    if constexpr (requires { store.MigrateOnce(size_t{4}); }) {
      if (migrate != nullptr && kMigrateEvery != 0 &&
          (i + 1) % kMigrateEvery == 0) {
        const auto moved = store.MigrateOnce(/*max_buckets_per_shard=*/4);
        ++migrate->passes;
        if (moved.ok()) {
          migrate->moved += moved.value();
        } else {
          std::fprintf(stderr, "migration sweep failed: %s\n",
                       moved.status().ToString().c_str());
          ++migrate->failed;
        }
      }
    }
    // Live backup drill: this thread pauses to checkpoint while the other
    // threads keep serving (shards are locked one at a time).
    if constexpr (requires { store.Checkpoint(kCheckpointDir); }) {
      if (ckpt != nullptr && kCheckpointEvery != 0 &&
          (i + 1) % kCheckpointEvery == 0) {
        const auto c0 = std::chrono::steady_clock::now();
        const pnw::Status s = store.Checkpoint(kCheckpointDir);
        ckpt->wall_ms += std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - c0)
                             .count();
        if (s.ok()) {
          ++ckpt->taken;
        } else {
          // Tracked (and exit-coded) separately from op failures: the mix
          // row's "failed" column counts store operations only.
          std::fprintf(stderr, "checkpoint failed: %s\n",
                       s.ToString().c_str());
          ++ckpt->failed;
        }
      }
    }
  }
  flush_reads();
  flush_writes();
  return counts;
}

/// Run one op stream per client thread -- `stream(t, ops)` on thread t,
/// each with ceil(kOps / kThreads) ops -- and sum their tallies.
template <typename Stream>
ThreadCounts RunThreads(const Stream& stream) {
  std::vector<ThreadCounts> counts(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const size_t per_thread = (kOps + kThreads - 1) / kThreads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counts, &stream, t, per_thread] {
      counts[t] = stream(t, per_thread);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ThreadCounts total;
  for (const auto& c : counts) {
    total += c;
  }
  return total;
}

/// The per-mix table shared by the local and --remote modes. `sim us/put`
/// is simulated NVM device time per PUT (StoreMetrics::AvgPutDeviceNs),
/// the paper's Fig. 7 quantity; kops/s is the only throughput and comes
/// from the wall clock.
void PrintHeader() {
  std::printf("%-18s %8s %8s %8s %7s %10s %10s %10s %7s\n", "workload",
              "reads", "writes", "inserts", "failed", "bits/512b",
              "sim us/put", "kops/s", "imbal");
}

void PrintRow(pnw::workloads::YcsbWorkload workload,
              const ThreadCounts& total, const pnw::core::StoreMetrics& m,
              double wall_s, double imbalance) {
  // Client ops: an RMW contributed to both reads and writes but is one
  // operation, so subtract the double count. The failed column counts
  // client-observed failures, which subsume the store's failed_ops (every
  // failed write surfaced its status to the issuing thread).
  const double ops_done = static_cast<double>(
      total.reads + total.writes + total.inserts - total.rmws);
  std::printf("%-18s %8llu %8llu %8llu %7llu %10.1f %10.2f %10.1f %7.2f\n",
              std::string(pnw::workloads::YcsbWorkloadName(workload)).c_str(),
              static_cast<unsigned long long>(total.reads),
              static_cast<unsigned long long>(total.writes),
              static_cast<unsigned long long>(total.inserts),
              static_cast<unsigned long long>(total.hard_failures),
              m.BitUpdatesPer512(), m.AvgPutDeviceNs() / 1000.0,
              ops_done / wall_s / 1000.0, imbalance);
}

/// The books every mix must balance, in process or over the wire. Prints
/// one line per identity and returns true when all of them hold.
bool ReconcileMix(const pnw::core::StoreMetrics& m,
                  const ThreadCounts& total) {
  // Every read the clients issued is in the store's books exactly once (a
  // hit in `gets`, a miss in `get_misses`), and every PUT has exactly one
  // placement attribution.
  const bool reads_reconcile = m.gets + m.get_misses == total.reads;
  const bool placement_consistent = m.PlacementAttributionConsistent();
  std::printf(
      "  reconcile: gets=%llu + get_misses=%llu == client reads=%llu "
      "[%s]; predicted+fallback+inplace == puts [%s]\n",
      static_cast<unsigned long long>(m.gets.load()),
      static_cast<unsigned long long>(m.get_misses.load()),
      static_cast<unsigned long long>(total.reads),
      reads_reconcile ? "ok" : "MISMATCH",
      placement_consistent ? "ok" : "MISMATCH");
  // Seqlock read-path split: every hit was served by exactly one of the
  // optimistic (lock-free, seqlock-validated) or locked paths.
  // optimistic_retries counts discarded conflicting attempts, which are
  // not reads, so it reconciles with nothing -- it is reported as the
  // contention gauge.
  const bool split_reconciles =
      m.gets == m.optimistic_gets + m.locked_gets;
  std::printf(
      "  reconcile: optimistic_gets=%llu + locked_gets=%llu == "
      "gets=%llu [%s] (optimistic_retries=%llu)\n",
      static_cast<unsigned long long>(m.optimistic_gets.load()),
      static_cast<unsigned long long>(m.locked_gets.load()),
      static_cast<unsigned long long>(m.gets.load()),
      split_reconciles ? "ok" : "MISMATCH",
      static_cast<unsigned long long>(m.optimistic_retries.load()));
  // Arena footprint gauges (device data array + DRAM index + staging):
  // live never exceeds the high-water mark, which never exceeds what the
  // slabs actually map.
  const bool arena_sane = m.arena_live_bytes <= m.arena_high_water_bytes &&
                          m.arena_high_water_bytes <= m.arena_slab_bytes;
  std::printf(
      "  arena: slabs=%llu mapped=%llu live=%llu high_water=%llu [%s]\n",
      static_cast<unsigned long long>(m.arena_slabs.load()),
      static_cast<unsigned long long>(m.arena_slab_bytes.load()),
      static_cast<unsigned long long>(m.arena_live_bytes.load()),
      static_cast<unsigned long long>(m.arena_high_water_bytes.load()),
      arena_sane ? "ok" : "MISMATCH");
  // Write-side books, the mirror of the read contract: every write the
  // clients issued is in the store's ledger exactly once -- as a counted
  // PUT (`puts`; endurance-first updates and latency-first in-place
  // updates both land there, the latter *also* tallied in
  // `inplace_updates`) or as a failed operation. Because inplace is a
  // subset of puts, the balance is puts + failed_ops == client writes;
  // this runner's stores run endurance-first, so the gate additionally
  // pins inplace_updates to 0 -- a future mode change trips loudly here
  // instead of quietly skewing the printed breakdown.
  const uint64_t client_writes = total.writes + total.inserts;
  const bool writes_reconcile =
      m.puts + m.failed_ops == client_writes && m.inplace_updates == 0;
  std::printf(
      "  reconcile: puts=%llu (of which inplace_updates=%llu) + "
      "failed_ops=%llu == client writes=%llu [%s]\n",
      static_cast<unsigned long long>(m.puts),
      static_cast<unsigned long long>(m.inplace_updates),
      static_cast<unsigned long long>(m.failed_ops),
      static_cast<unsigned long long>(client_writes),
      writes_reconcile ? "ok" : "MISMATCH");
  return reads_reconcile && placement_consistent && split_reconciles &&
         arena_sane && writes_reconcile;
}

using StatsFrame = std::vector<std::pair<std::string, uint64_t>>;

/// Look up one counter from a STATS snapshot by its flat name. Missing
/// counters are a protocol drift bug, not a soft condition: fail the run.
uint64_t StatOf(const StatsFrame& stats, const std::string& name) {
  for (const auto& [stat_name, value] : stats) {
    if (stat_name == name) {
      return value;
    }
  }
  std::fprintf(stderr, "STATS snapshot is missing counter '%s'\n",
               name.c_str());
  std::exit(1);
}

/// Rebuild the StoreMetrics of one remote mix from the STATS frames taken
/// around it: counters are after minus before, gauges come from the after
/// frame (times travel as whole nanoseconds).
pnw::core::StoreMetrics MetricsFromStats(const StatsFrame& before,
                                         const StatsFrame& after) {
  pnw::core::StoreMetrics m;
#define PNW_COUNTER_DELTA(type, name) \
  m.name = StatOf(after, "store." #name) - StatOf(before, "store." #name);
  PNW_STORE_COUNTERS(PNW_COUNTER_DELTA)
#undef PNW_COUNTER_DELTA
#define PNW_GAUGE_VALUE(type, name) m.name = StatOf(after, "store." #name);
  PNW_STORE_GAUGES(PNW_GAUGE_VALUE)
#undef PNW_GAUGE_VALUE
  return m;
}

/// The --remote mode: the same five mixes, driven over the wire. Each mix
/// preloads its key range through the control connection (the server store
/// persists across mixes, so re-preloads are plain updates -- the server
/// must be sized with insert headroom), snapshots STATS, runs one client
/// connection per thread through the shared RunOpStream, snapshots STATS
/// again, and reconciles the deltas: the same store books as the local
/// mode, plus client tallies == ServerMetrics key counts. Exits nonzero on
/// any mismatch or hard failure, exactly like the local mode.
int RunRemoteMixes(const std::string& host, uint16_t port) {
  using pnw::workloads::YcsbWorkload;
  auto control_r = pnw::server::Client::Connect(host, port);
  if (!control_r.ok()) {
    std::fprintf(stderr, "remote: connect to %s:%u failed: %s\n",
                 host.c_str(), static_cast<unsigned>(port),
                 control_r.status().ToString().c_str());
    return 1;
  }
  auto control = std::move(control_r).value();
  auto stats = [&control](StatsFrame* out) {
    auto frame = control->Stats();
    if (!frame.ok()) {
      std::fprintf(stderr, "remote STATS failed: %s\n",
                   frame.status().ToString().c_str());
      return false;
    }
    *out = std::move(frame).value();
    return true;
  };

  std::printf("YCSB core mixes on PNW via %s:%u (%zu records, %zu ops, "
              "%zuB values, %zu connections, read batch %zu)\n",
              host.c_str(), static_cast<unsigned>(port), kRecords, kOps,
              kValueBytes, kThreads, kBatch);
  PrintHeader();

  bool any_failures = false;
  for (YcsbWorkload workload :
       {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
        YcsbWorkload::kD, YcsbWorkload::kF}) {
    // Preload the mix's base key range in MULTI_PUT chunks. These writes
    // land *before* the first STATS snapshot, so the per-mix deltas below
    // cover exactly the measured op streams.
    pnw::Rng rng(1234);
    constexpr size_t kPreloadChunk = 128;
    for (size_t base = 0; base < kRecords; base += kPreloadChunk) {
      const size_t n = std::min(kPreloadChunk, kRecords - base);
      std::vector<uint64_t> keys(n);
      std::vector<std::vector<uint8_t>> values(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = base + i;
        values[i] = MakeValue(base + i, 0, rng);
      }
      const auto codes = control->MultiPut(keys, values);
      if (!codes.ok()) {
        std::fprintf(stderr, "remote preload failed: %s\n",
                     codes.status().ToString().c_str());
        return 1;
      }
      for (const pnw::Status::Code code : codes.value()) {
        if (code != pnw::Status::Code::kOk) {
          std::fprintf(stderr,
                       "remote preload: slot status code %d (server out of "
                       "space or overloaded? size it with headroom)\n",
                       static_cast<int>(code));
          return 1;
        }
      }
    }
    StatsFrame before;
    if (!stats(&before)) {
      return 1;
    }

    // One connection per thread, opened up front so a refused connect
    // fails the run before any stream starts.
    std::vector<std::unique_ptr<pnw::server::Client>> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      auto c = pnw::server::Client::Connect(host, port);
      if (!c.ok()) {
        std::fprintf(stderr, "remote: worker connect failed: %s\n",
                     c.status().ToString().c_str());
        return 1;
      }
      clients.push_back(std::move(c).value());
    }
    const auto t0 = std::chrono::steady_clock::now();
    const ThreadCounts total =
        RunThreads([&clients, workload](size_t t, size_t ops) {
          RemoteStore remote(clients[t].get());
          return RunOpStream(remote, workload, t, ops);
        });
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    StatsFrame after;
    if (!stats(&after)) {
      return 1;
    }
    const pnw::core::StoreMetrics m = MetricsFromStats(before, after);
    // imbal needs per-shard visibility, which is the server's business, so
    // it prints as 0.
    PrintRow(workload, total, m, wall_s, 0.0);
    const bool store_reconciles = ReconcileMix(m, total);
    // The server's own books: it forwarded exactly the keys the clients
    // sent and the store served. The runner is the server's sole client
    // between the two snapshots (STATS frames touch no key counters).
    const uint64_t server_reads = StatOf(after, "server.get_keys") -
                                  StatOf(before, "server.get_keys");
    const uint64_t server_writes = StatOf(after, "server.put_keys") -
                                   StatOf(before, "server.put_keys");
    const bool server_reconciles =
        server_reads == total.reads &&
        server_reads == m.gets + m.get_misses &&
        server_writes == total.writes + total.inserts &&
        server_writes == m.puts + m.failed_ops;
    std::printf(
        "  reconcile: server get_keys=%llu == client reads == store "
        "gets+get_misses; server put_keys=%llu == client writes == store "
        "puts+failed_ops [%s]\n",
        static_cast<unsigned long long>(server_reads),
        static_cast<unsigned long long>(server_writes),
        server_reconciles ? "ok" : "MISMATCH");
    any_failures = any_failures || total.hard_failures != 0 ||
                   m.failed_ops != 0 || !store_reconciles ||
                   !server_reconciles;
  }
  std::printf("\n(remote mode: every row rode the wire protocol; --batch "
              "rides MULTI_GET/MULTI_PUT frames and\n pipelining across "
              "connections is what lets the server group frames into one "
              "store batch --\n see server.store_batches vs "
              "server.batched_keys in STATS)\n");
  return any_failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using pnw::workloads::YcsbWorkload;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(argv[0]);
      return 0;
    }
  }
  kRecords = FlagOr(argc, argv, "records", kRecords);
  kOps = FlagOr(argc, argv, "ops", kOps);
  kThreads = FlagOr(argc, argv, "threads", kThreads);
  kShards = FlagOr(argc, argv, "shards", kShards);
  kBatch = FlagOr(argc, argv, "batch", kBatch);
  // 0 is the documented "off" value, so it must parse, not error.
  kCheckpointEvery = FlagOr(argc, argv, "checkpoint-every", kCheckpointEvery,
                            /*min_value=*/0);
  kCheckpointDir = StringFlagOr(
      argc, argv, "checkpoint-dir",
      (std::filesystem::temp_directory_path() / "pnw_ycsb_ckpt").string());
  // 0 is the documented "off" value for both endurance pacers.
  kStartGap = FlagOr(argc, argv, "start-gap", kStartGap, /*min_value=*/0);
  kMigrateEvery = FlagOr(argc, argv, "migrate-every", kMigrateEvery,
                         /*min_value=*/0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wear-report") == 0) {
      kWearReport = true;
    }
  }
  kRemote = StringFlagOr(argc, argv, "remote", "");

  if (!kRemote.empty()) {
    if (kCheckpointEvery != 0 || kMigrateEvery != 0 || kStartGap != 0 ||
        kWearReport) {
      std::fprintf(stderr,
                   "--remote drives a pnw_server; --checkpoint-every, "
                   "--migrate-every, --start-gap, and --wear-report are "
                   "local-store machinery and cannot be combined with it\n");
      return 2;
    }
    const size_t colon = kRemote.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == kRemote.size()) {
      std::fprintf(stderr, "--remote wants HOST:PORT, got '%s'\n",
                   kRemote.c_str());
      return 2;
    }
    char* end = nullptr;
    const long port = std::strtol(kRemote.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port < 1 || port > 65535) {
      std::fprintf(stderr, "--remote port must be 1..65535, got '%s'\n",
                   kRemote.c_str() + colon + 1);
      return 2;
    }
    return RunRemoteMixes(kRemote.substr(0, colon),
                          static_cast<uint16_t>(port));
  }

  std::printf("YCSB core mixes on PNW (%zu records, %zu ops, %zuB values, "
              "%zu threads, %zu shards, read batch %zu)\n",
              kRecords, kOps, kValueBytes, kThreads, kShards, kBatch);
  if (kCheckpointEvery != 0) {
    std::printf("live checkpoints: every %zu thread-0 ops into %s\n",
                kCheckpointEvery, kCheckpointDir.c_str());
  }
  if (kStartGap != 0) {
    std::printf("start-gap wear leveling: gap moves every %zu writes per "
                "shard\n", kStartGap);
  }
  if (kMigrateEvery != 0) {
    std::printf("hot-bucket migration: sweep every %zu thread-0 ops\n",
                kMigrateEvery);
  }
  PrintHeader();

  bool any_failures = false;
  CheckpointStats total_ckpt;
  MigrateStats total_migrate;
  for (YcsbWorkload workload :
       {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
        YcsbWorkload::kD, YcsbWorkload::kF}) {
    pnw::core::ShardedOptions options;
    options.num_shards = kShards;
    options.store.value_bytes = kValueBytes;
    options.store.initial_buckets = kRecords;
    options.store.capacity_buckets = kRecords * 2;
    options.store.num_clusters = 8;
    options.store.max_features = 256;
    options.store.load_factor = 0.85;
    if (kStartGap != 0) {
      options.store.start_gap_wear_leveling = true;
      options.store.gap_write_interval = kStartGap;
    }
    auto opened = pnw::core::ShardedPnwStore::Open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    auto store = std::move(opened.value());

    pnw::Rng rng(1234);
    std::vector<uint64_t> keys(kRecords);
    std::vector<std::vector<uint8_t>> values(kRecords);
    for (size_t i = 0; i < kRecords; ++i) {
      keys[i] = i;
      values[i] = MakeValue(i, 0, rng);
    }
    if (!store->Bootstrap(keys, values).ok()) {
      std::fprintf(stderr, "bootstrap failed\n");
      return 1;
    }
    store->ResetWearAndMetrics();

    const auto t0 = std::chrono::steady_clock::now();
    const ThreadCounts total = RunThreads(
        [&store, &total_ckpt, &total_migrate, workload](size_t t,
                                                        size_t ops) {
          return RunOpStream(*store, workload, t, ops,
                             t == 0 ? &total_ckpt : nullptr,
                             t == 0 ? &total_migrate : nullptr);
        });
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const pnw::core::ShardedMetrics agg = store->AggregatedMetrics();
    PrintRow(workload, total, agg.totals, wall_s, agg.PutImbalance());
    const bool store_reconciles = ReconcileMix(agg.totals, total);
    any_failures = any_failures || total.hard_failures != 0 ||
                   agg.totals.failed_ops != 0 || !store_reconciles;
    if (kWearReport) {
      // Endurance ledger, per shard: the clients' successful writes plus
      // the endurance layer's own copies (hot-bucket migrations, Start-Gap
      // moves) must equal the device bucket writes the wear histogram
      // recorded -- every physical write accounted exactly once.
      const size_t slots =
          options.store.capacity_buckets + (kStartGap != 0 ? 1 : 0);
      for (const auto& s : agg.shards) {
        const pnw::core::StoreMetrics& sm = s.metrics;
        const uint64_t accounted = sm.puts + sm.migrations + sm.gap_moves;
        const bool wear_reconciles = s.physical_bucket_writes == accounted;
        std::printf(
            "  wear[shard %zu]: max=%u mean=%.2f rotations=%llu "
            "migrations=%llu gap_moves=%llu | puts=%llu + migrations + "
            "gap_moves == device bucket writes=%llu [%s]\n",
            s.shard, s.max_physical_writes,
            static_cast<double>(s.physical_bucket_writes) /
                static_cast<double>(slots),
            static_cast<unsigned long long>(s.start_gap_rotations),
            static_cast<unsigned long long>(sm.migrations),
            static_cast<unsigned long long>(sm.gap_moves),
            static_cast<unsigned long long>(sm.puts),
            static_cast<unsigned long long>(s.physical_bucket_writes),
            wear_reconciles ? "ok" : "MISMATCH");
        any_failures = any_failures || !wear_reconciles;
      }
    }
  }
  if (kCheckpointEvery != 0) {
    std::printf("\nlive checkpoints: %llu taken (%llu failed), "
                "%.1f ms total, last one recoverable via "
                "ShardedPnwStore::Open(\"%s\")\n",
                static_cast<unsigned long long>(total_ckpt.taken),
                static_cast<unsigned long long>(total_ckpt.failed),
                total_ckpt.wall_ms, kCheckpointDir.c_str());
    any_failures = any_failures || total_ckpt.failed != 0;
  }
  if (kMigrateEvery != 0) {
    std::printf("\nhot-bucket migration: %llu sweeps moved %llu buckets "
                "(%llu failed sweeps)\n",
                static_cast<unsigned long long>(total_migrate.passes),
                static_cast<unsigned long long>(total_migrate.moved),
                static_cast<unsigned long long>(total_migrate.failed));
    any_failures = any_failures || total_migrate.failed != 0;
  }
  std::printf("\n(update-heavy mixes benefit most from PNW: every update is "
              "re-steered to a similar residue;\n kops/s is wall clock, sim "
              "us/put the simulated NVM device time per PUT)\n");
  return any_failures ? 1 : 0;
}
