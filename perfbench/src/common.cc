#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "src/index/dram_hash_index.h"
#include "src/nvm/nvm_device.h"
#include "src/util/mutex.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr size_t kStampBytes = 16;

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& what, uint64_t count) {
  check_failures_.push_back(what);
  failed += count;
}

void Report::Print(const std::string& workload, bool trace) const {
  std::printf("== pnw perfbench: %s (%s run) ==\n", workload.c_str(),
              trace ? "traced" : "untraced");
  for (const std::string& note : notes_) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("%-34s %18s  %-10s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-34s %18.6f  %-10s %10llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : check_failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("attempted=%llu failed=%llu error_rate=%.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %llu}",
                i == 0 ? "" : ", ", JsonEscape(m.name).c_str(), m.value,
                JsonEscape(m.unit).c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("}, \"checks_failed\": [");
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                JsonEscape(check_failures_[i]).c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double RssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident_pages) *
         static_cast<double>(page > 0 ? page : 4096) / (1024.0 * 1024.0);
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) {
    CPU_SET(cpu, &allowed);
  }
  // Best effort, like Step.
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Step() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  // Best effort: a run that stays on one CPU is still a correct run.
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

ValueFactory::ValueFactory(std::vector<std::vector<uint8_t>> pool,
                           std::vector<std::vector<uint8_t>> boot)
    : value_bytes_(pool.empty() ? 0 : pool.front().size()),
      pool_(std::move(pool)),
      boot_(std::move(boot)) {
  for (size_t k = 0; k < boot_.size(); ++k) {
    Fill(k, 0, boot_[k]);
  }
}

std::span<const uint8_t> ValueFactory::Payload(uint64_t key,
                                               uint64_t version) const {
  if (version == 0 && key < boot_.size()) {
    return boot_[key];
  }
  return pool_[Mix64(key * 0x100000001b3ull + version) % pool_.size()];
}

void ValueFactory::Fill(uint64_t key, uint64_t version,
                        std::span<uint8_t> out) const {
  const std::span<const uint8_t> payload = Payload(key, version);
  if (payload.data() != out.data()) {
    std::memcpy(out.data() + kStampBytes, payload.data() + kStampBytes,
                value_bytes_ - kStampBytes);
  }
  std::memcpy(out.data(), &key, sizeof(key));
  std::memcpy(out.data() + sizeof(key), &version, sizeof(version));
}

std::vector<uint8_t> ValueFactory::Make(uint64_t key, uint64_t version) const {
  std::vector<uint8_t> out(value_bytes_);
  Fill(key, version, out);
  return out;
}

bool ValueFactory::Matches(uint64_t key, uint64_t version,
                           std::span<const uint8_t> got) const {
  if (got.size() != value_bytes_) {
    return false;
  }
  uint64_t got_key = 0;
  uint64_t got_version = 0;
  std::memcpy(&got_key, got.data(), sizeof(got_key));
  std::memcpy(&got_version, got.data() + sizeof(got_key), sizeof(got_version));
  const std::span<const uint8_t> payload = Payload(key, version);
  return got_key == key && got_version == version &&
         std::memcmp(got.data() + kStampBytes, payload.data() + kStampBytes,
                     value_bytes_ - kStampBytes) == 0;
}

std::vector<std::vector<uint8_t>> GenerateClusteredValues(size_t count,
                                                          size_t bytes,
                                                          uint64_t seed) {
  pnw::Rng rng(seed);
  std::vector<std::vector<uint8_t>> prototypes(8, std::vector<uint8_t>(bytes));
  for (auto& proto : prototypes) {
    for (auto& b : proto) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  std::vector<std::vector<uint8_t>> values(count);
  for (auto& value : values) {
    value = prototypes[rng.NextBelow(prototypes.size())];
    for (int i = 0; i < 4; ++i) {
      value[rng.NextBelow(bytes)] = static_cast<uint8_t>(rng.Next());
    }
  }
  return values;
}

uint64_t PhaseResult::Ops() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.ops;
  return n;
}
uint64_t PhaseResult::Reads() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.reads;
  return n;
}
uint64_t PhaseResult::Writes() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.writes;
  return n;
}
uint64_t PhaseResult::Deletes() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.deletes;
  return n;
}
uint64_t PhaseResult::Failed() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.failed;
  return n;
}
uint64_t PhaseResult::Mismatches() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.mismatches;
  return n;
}

void PhaseResult::StartWindows(uint64_t t0, double seconds) {
  window_seconds = seconds / kWindows;
  const auto window_ns = static_cast<uint64_t>(window_seconds * 1e9);
  for (ClientLog& log : clients) {
    log.window_base_ops = log.ops;
    log.window_ns = window_ns;
    log.next_mark_ns = t0 + window_ns;
  }
}

PhaseResult NewPhase(size_t n, bool traced, uint64_t ops_per_client) {
  PhaseResult phase;
  phase.clients.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ClientLog& log = phase.clients[i];
    log.windows.resize(kWindows);
    if (traced) {
      // Two spans per op (the client op and the layer call it makes)
      // plus headroom for per-pipeline and checkpoint spans.
      log.tracer = std::make_unique<Tracer>(static_cast<uint16_t>(i),
                                            2 * ops_per_client + 4096);
      log.written.reserve(kReplayCap);
      log.read_keys.reserve(kReplayCap);
    }
  }
  return phase;
}

uint64_t ReplayCoreLayers(const PhaseResult& phase, const CoreReplay& replay,
                          Tracer* tracer) {
  uint64_t errors = 0;
  const ValueFactory& values = *replay.values;
  std::vector<uint8_t> value(values.value_bytes());
  uint64_t op_id = 0;

  // ml: the serving model on every written value. The labels then place
  // the nvm replay like the store does, over a resident value of the
  // same predicted cluster.
  using Cluster = std::pair<const pnw::core::ValueModel*, size_t>;
  pnw::core::FeatureScratch scratch;
  std::vector<Cluster> written_clusters;
  for (const ClientLog& log : phase.clients) {
    for (const WrittenValue& w : log.written) {
      const pnw::core::ValueModel* model = replay.model_for(w.key);
      size_t label = 0;
      if (model != nullptr) {
        values.Fill(w.key, w.version, value);
        ScopedSpan span(tracer, SpanName::kMlPredict, op_id++);
        label = model->Predict(value, scratch);
      }
      written_clusters.emplace_back(model, label);
    }
  }

  // index: the workload's read keys over an index of the preloaded keys.
  {
    pnw::index::DramHashIndex index;
    for (uint64_t k = 0; k < replay.index_keys; ++k) {
      if (!index.Put(k, k * values.value_bytes()).ok()) {
        ++errors;
      }
    }
    for (const ClientLog& log : phase.clients) {
      for (const uint64_t key : log.read_keys) {
        ScopedSpan span(tracer, SpanName::kIndexGet, op_id++);
        if (!index.Get(key).ok()) {
          ++errors;
        }
      }
    }
  }

  // nvm: each written value diffed over a resident bootstrap value of its
  // own predicted cluster (a hashed bucket when the cluster has none).
  {
    const size_t buckets = replay.device_buckets;
    const size_t bytes = values.value_bytes();
    pnw::nvm::NvmConfig config;
    config.size_bytes = buckets * bytes;
    pnw::nvm::NvmDevice device(config);
    std::map<Cluster, std::vector<size_t>> resident;
    for (size_t b = 0; b < buckets; ++b) {
      values.Fill(b, 0, value);
      if (!device.WriteConventional(b * bytes, value).ok()) {
        ++errors;
      }
      const pnw::core::ValueModel* model = replay.model_for(b);
      resident[{model, model != nullptr ? model->Predict(value, scratch) : 0}]
          .push_back(b);
    }
    std::map<Cluster, size_t> next;
    size_t i = 0;
    for (const ClientLog& log : phase.clients) {
      for (const WrittenValue& w : log.written) {
        const Cluster& cluster = written_clusters[i++];
        const auto it = resident.find(cluster);
        const size_t bucket =
            it != resident.end()
                ? it->second[next[cluster]++ % it->second.size()]
                : Mix64(w.key) % buckets;
        values.Fill(w.key, w.version, value);
        ScopedSpan span(tracer, SpanName::kNvmDiff, op_id++);
        if (!device.WriteDifferential(bucket * bytes, value).ok()) {
          ++errors;
        }
      }
    }
  }
  return errors;
}

uint64_t ReplayShardedCoreLayers(pnw::core::ShardedPnwStore& store,
                                 const ValueFactory& values,
                                 uint64_t index_keys, size_t device_buckets,
                                 const PhaseResult& phase, Tracer* tracer) {
  std::vector<std::shared_ptr<const pnw::core::ValueModel>> models;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    pnw::core::PnwStore& shard = store.shard(i);
    pnw::util::ReaderLock lock(shard.mu());
    models.push_back(shard.model());
  }
  CoreReplay replay;
  replay.values = &values;
  replay.model_for = [&](uint64_t key) {
    return models[store.ShardOf(key)].get();
  };
  replay.index_keys = index_keys;
  replay.device_buckets = device_buckets;
  return ReplayCoreLayers(phase, replay, tracer);
}

LayerCounters ShardedCounters(const pnw::core::ShardedPnwStore& store) {
  LayerCounters c;
  const pnw::core::ShardedMetrics agg = store.AggregatedMetrics();
  c.store = agg.totals;
  c.window = agg.totals;
  c.put_imbalance = agg.PutImbalance();
  uint64_t active = 0;
  for (const pnw::core::ShardSummary& s : agg.shards) {
    active += s.active_buckets;
  }
  const double mean = active == 0 ? 0.0
                                  : static_cast<double>(agg.totals.puts) /
                                        static_cast<double>(active);
  c.wear_max_over_mean = mean > 0.0 ? agg.MaxBucketWrites() / mean : 0.0;
  c.arena_slab_bytes = agg.totals.arena_slab_bytes;
  c.arena_live_bytes = agg.totals.arena_live_bytes;
  return c;
}

void EmitLayerMetrics(const LayerCounters& c,
                      const std::vector<SpanSummary>& spans, Report& report) {
  auto span = [&](SpanName name) -> const SpanSummary& {
    return spans[static_cast<size_t>(name)];
  };
  const pnw::core::StoreMetrics& m = c.store;
  const pnw::core::StoreMetrics& w = c.window;
  const double puts = static_cast<double>(m.puts);
  const double wputs = static_cast<double>(w.puts);
  const uint64_t placements = w.predicted_placements + w.fallback_placements;
  const uint64_t gets = m.gets.load();

  const SpanSummary& predict = span(SpanName::kMlPredict);
  const double predict_per_put = Ratio(m.predict_wall_ns, puts);
  report.Add("ml.predict_ns.p50", predict.PercentileNs(0.5), "ns",
             predict.count);
  report.Add("ml.predict_ns_per_put", predict_per_put, "ns", m.puts);
  const SpanSummary& train = span(SpanName::kMlTrain);
  report.Add("ml.train_s", static_cast<double>(train.total_ns) / 1e9, "s",
             train.count);
  report.Add("ml.predicted_share",
             Ratio(static_cast<double>(w.predicted_placements),
                   static_cast<double>(placements)),
             "ratio", placements);

  const SpanSummary& put = span(SpanName::kCorePut);
  const SpanSummary& diff = span(SpanName::kNvmDiff);
  const double log_per_put = Ratio(m.log_wall_ns, puts);
  report.Add("core.put_ns.p50", put.PercentileNs(0.5), "ns", put.count);
  report.Add("core.put_ns.p99", put.PercentileNs(0.99), "ns", put.count);
  report.Add("core.unattributed_ns_per_put",
             put.count == 0 ? 0.0
                            : put.MeanNs() - predict_per_put - log_per_put -
                                  diff.MeanNs(),
             "ns", put.count);
  report.Add("core.pool_fallback_rate",
             Ratio(static_cast<double>(w.pool_fallbacks),
                   static_cast<double>(placements)),
             "ratio", placements);
  report.Add("core.optimistic_hit_rate",
             Ratio(static_cast<double>(m.optimistic_gets.load()),
                   static_cast<double>(gets)),
             "ratio", gets);
  report.Add("core.optimistic_retries_per_get",
             Ratio(static_cast<double>(m.optimistic_retries.load()),
                   static_cast<double>(gets)),
             "1/get", gets);
  report.Add("core.put_imbalance", c.put_imbalance, "ratio", m.puts);

  const SpanSummary& index_get = span(SpanName::kIndexGet);
  report.Add("index.get_ns.p50", index_get.PercentileNs(0.5), "ns",
             index_get.count);

  report.Add("nvm.bits_per_put",
             Ratio(static_cast<double>(w.put_bits_written), wputs),
             "bits/put", w.puts);
  report.Add("nvm.words_per_put",
             Ratio(static_cast<double>(w.put_words_written), wputs),
             "words/put", w.puts);
  report.Add("nvm.lines_per_put",
             Ratio(static_cast<double>(w.put_lines_written), wputs),
             "lines/put", w.puts);
  report.Add("nvm.diff_ns.p50", diff.PercentileNs(0.5), "ns", diff.count);
  report.Add("nvm.sim_device_ns_per_put", Ratio(w.put_device_ns, wputs),
             "sim_ns", w.puts);
  report.Add("nvm.wear_max_over_mean", c.wear_max_over_mean, "ratio", m.puts);

  const SpanSummary& append = span(SpanName::kPersistAppend);
  const SpanSummary& sync = span(SpanName::kPersistSync);
  const SpanSummary& checkpoint = span(SpanName::kPersistCheckpoint);
  report.Add("persist.log_ns_per_put", log_per_put, "ns", m.puts);
  report.Add("persist.append_ns.p50", append.PercentileNs(0.5), "ns",
             append.count);
  report.Add("persist.sync_ns.p99", sync.PercentileNs(0.99), "ns",
             sync.count);
  report.Add("persist.checkpoint_s", checkpoint.PercentileNs(0.5) / 1e9, "s",
             checkpoint.count);
  report.Add("persist.log_bytes_per_user_byte", c.log_bytes_per_user_byte,
             "ratio", m.puts);

  const SpanSummary& pipeline = span(SpanName::kServerPipeline);
  const SpanSummary& codec = span(SpanName::kServerCodec);
  report.Add("server.rtt_us.p50", pipeline.PercentileNs(0.5) / 1e3, "us",
             pipeline.count);
  report.Add("server.codec_ns.p50", codec.PercentileNs(0.5), "ns",
             codec.count);
  report.Add("server.mean_batch_keys",
             Ratio(static_cast<double>(c.batched_keys),
                   static_cast<double>(c.store_batches)),
             "keys", c.store_batches);
  report.Add("server.bytes_per_op",
             Ratio(static_cast<double>(c.bytes_in + c.bytes_out),
                   static_cast<double>(c.frames_in)),
             "B", c.frames_in);
  report.Add("server.overload_rejects",
             static_cast<double>(c.overload_rejects), "count", c.frames_in);
  report.Add("server.protocol_errors", static_cast<double>(c.protocol_errors),
             "count", c.frames_in);

  report.Add("util.arena_mapped_mib",
             static_cast<double>(c.arena_slab_bytes) / (1024.0 * 1024.0),
             "MiB", 1);
  report.Add("util.arena_live_mib",
             static_cast<double>(c.arena_live_bytes) / (1024.0 * 1024.0),
             "MiB", 1);
}

void CheckStoreIdentities(const PhaseResult& phase, const LayerCounters& c,
                          uint64_t replay_errors, Report& report) {
  const pnw::core::StoreMetrics& m = c.store;
  auto expect = [&](const char* what, uint64_t lhs, uint64_t rhs) {
    if (lhs != rhs) {
      report.Fail(std::string(what) + ": " + std::to_string(lhs) +
                  " != " + std::to_string(rhs));
    }
  };
  expect("gets + get_misses == client reads", m.gets + m.get_misses,
         phase.Reads());
  expect("puts + failed_ops == client writes", m.puts + m.failed_ops,
         phase.Writes());
  // Endurance-first updates run as DELETE + PUT inside the store.
  expect("deletes == client deletes + updates", m.deletes,
         phase.Deletes() + m.updates);
  if (c.wire) {
    expect("frames_in == frames_out + dropped_responses", c.frames_in,
           c.frames_out + c.dropped_responses);
  }
  if (phase.Failed() != 0) {
    report.Fail("client ops failed or refused: " +
                    std::to_string(phase.Failed()),
                phase.Failed());
  }
  if (phase.Mismatches() != 0) {
    report.Fail("GETs that missed the last acknowledged write: " +
                    std::to_string(phase.Mismatches()),
                phase.Mismatches());
  }
  if (replay_errors != 0) {
    report.Fail("replayed layer calls failed: " +
                std::to_string(replay_errors));
  }
}

}  // namespace perfbench
