// End-to-end battery for the networked front-end (ISSUE 8 satellites 2-3):
// a real PnwServer on an ephemeral loopback port, real Client connections,
// and the reconcile discipline of this repo extended across the wire --
// client-side tallies == ServerMetrics frame/key counts == StoreMetrics
// operation counts, to the op. The ServerConcurrencyTest suite is the
// TSan target (many clients + a concurrent Checkpoint); the lifecycle
// tests inject the ugly failures: disconnect mid-pipeline, a torn frame
// followed by hangup, a slow reader that must engage (and release) the
// backpressure valve, overload shedding, and Stop with live connections.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sharded_store.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace pnw::server {
namespace {

namespace fs = std::filesystem;

constexpr size_t kValueBytes = 16;

core::ShardedOptions SmallOptions(size_t shards) {
  core::ShardedOptions options;
  options.num_shards = shards;
  options.store.value_bytes = kValueBytes;
  options.store.initial_buckets = 512;
  options.store.capacity_buckets = 1024;
  options.store.num_clusters = 2;
  options.store.max_features = 0;
  options.store.training_sample_cap = 64;
  return options;
}

std::vector<uint8_t> MakeValue(uint64_t key, uint64_t salt) {
  std::vector<uint8_t> v(kValueBytes);
  for (size_t i = 0; i < kValueBytes; ++i) {
    v[i] = static_cast<uint8_t>((key * 31 + salt * 7 + i) & 0xff);
  }
  return v;
}

/// Open + bootstrap a sharded store with `records` keys [0, records).
std::unique_ptr<core::ShardedPnwStore> MakeStore(size_t shards,
                                                 size_t records) {
  auto opened = core::ShardedPnwStore::Open(SmallOptions(shards));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  auto store = std::move(opened).value();
  std::vector<uint64_t> keys(records);
  std::vector<std::vector<uint8_t>> values(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = i;
    values[i] = MakeValue(i, 0);
  }
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  store->ResetWearAndMetrics();
  return store;
}

std::unique_ptr<PnwServer> MustStart(core::ShardedPnwStore* store,
                                     ServerOptions options = {}) {
  auto started = PnwServer::Start(store, options);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

std::unique_ptr<Client> MustConnect(const PnwServer& server) {
  auto connected = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return std::move(connected).value();
}

/// Spin (bounded) until `pred` holds -- for counters the loop thread
/// credits a moment after the client observes the bytes.
bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- The core promise: pipelined mixed workload, three-way reconcile ---

TEST(ServerE2eTest, MixedPipelinedWorkloadReconcilesThreeWays) {
  auto store = MakeStore(/*shards=*/4, /*records=*/128);
  auto server = MustStart(store.get());
  auto client = MustConnect(*server);

  // Client-side tallies: the first leg of the reconcile.
  uint64_t puts_sent = 0, gets_sent = 0, deletes_sent = 0;
  uint64_t get_hits = 0, get_misses = 0, delete_hits = 0, delete_misses = 0;
  uint64_t put_oks = 0, put_fails = 0;

  Rng rng(42);
  // Mixed pipelined bursts: depth-8 windows of single-key GET/PUT frames
  // (these group server-side into MultiGet/MultiPut runs), with a DELETE
  // between windows.
  for (int round = 0; round < 30; ++round) {
    std::vector<uint64_t> ids;
    std::vector<bool> is_put;
    std::vector<uint64_t> window_keys;
    for (int d = 0; d < 8; ++d) {
      const uint64_t key = rng.NextBelow(192);  // [0,128) exist, rest miss
      if (rng.NextBool(0.5)) {
        ids.push_back(client->SendPut(key, MakeValue(key, round + 1)));
        is_put.push_back(true);
        ++puts_sent;
      } else {
        ids.push_back(client->SendGet(key));
        is_put.push_back(false);
        ++gets_sent;
      }
      window_keys.push_back(key);
    }
    ASSERT_TRUE(client->Flush().ok());
    for (size_t d = 0; d < ids.size(); ++d) {
      auto r = client->Receive();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Response& response = r.value();
      EXPECT_EQ(response.request_id, ids[d]);
      if (is_put[d]) {
        if (response.status == Status::Code::kOk) {
          ++put_oks;
        } else {
          ++put_fails;
        }
      } else {
        if (response.status == Status::Code::kOk) {
          EXPECT_EQ(response.value.size(), kValueBytes);
          ++get_hits;
        } else {
          EXPECT_EQ(response.status, Status::Code::kNotFound);
          ++get_misses;
        }
      }
    }

    // One sync DELETE per round (hit or miss tracked client-side).
    const uint64_t del_key = rng.NextBelow(192);
    const Status del = client->Delete(del_key);
    ++deletes_sent;
    if (del.ok()) {
      ++delete_hits;
    } else {
      ASSERT_TRUE(del.IsNotFound()) << del.ToString();
      ++delete_misses;
    }
  }

  // Leg 2: ServerMetrics. Wait for the loop thread to credit the last
  // written frames, then require exact equalities.
  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] {
    return sm.frames_out.load() + sm.dropped_responses.load() ==
           sm.frames_in.load();
  }));
  EXPECT_EQ(sm.put_keys.load(), puts_sent);
  EXPECT_EQ(sm.get_keys.load(), gets_sent);
  EXPECT_EQ(sm.delete_keys.load(), deletes_sent);
  EXPECT_EQ(sm.batched_keys.load(),
            sm.get_keys.load() + sm.put_keys.load() + sm.delete_keys.load());
  EXPECT_EQ(sm.frames_in.load(), client->frames_sent());
  // The byte legs of the same identity: once every response has been
  // received, the server has read exactly what this sole client wrote and
  // written exactly what it read back.
  EXPECT_EQ(sm.bytes_in.load(), client->bytes_sent());
  EXPECT_EQ(sm.bytes_out.load(), client->bytes_received());
  EXPECT_EQ(sm.connections_accepted.load(), 1u);
  EXPECT_EQ(sm.overload_rejects.load(), 0u);
  EXPECT_EQ(sm.protocol_errors.load(), 0u);
  EXPECT_EQ(sm.decode_errors.load(), 0u);
  // Pipelining actually amortized: the depth-8 windows must have produced
  // at least one store batch larger than one key.
  EXPECT_GT(sm.max_batch_keys.load(), 1u);
  EXPECT_LT(sm.store_batches.load(), sm.batched_keys.load());

  // Leg 3: StoreMetrics, to the op.
  const core::StoreMetrics& t = store->AggregatedMetrics().totals;
  EXPECT_EQ(t.gets.load() + t.get_misses.load(), gets_sent);
  EXPECT_EQ(t.gets.load(), get_hits);
  EXPECT_EQ(t.get_misses.load(), get_misses);
  EXPECT_EQ(t.puts + t.failed_ops, puts_sent);
  EXPECT_EQ(t.puts, put_oks);
  EXPECT_EQ(t.failed_ops, put_fails);
  // Endurance-first updates are internally DELETE + PUT, so the store's
  // delete counter carries one extra per replaced key.
  EXPECT_EQ(t.deletes, delete_hits + t.updates);
  EXPECT_EQ(delete_hits + delete_misses, deletes_sent);

  server->Stop();
}

TEST(ServerE2eTest, StatsOpcodeMatchesInProcessMetrics) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto client = MustConnect(*server);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(client->Put(k, MakeValue(k, 9)).ok());
  }
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::map<std::string, uint64_t> value_of;
  std::map<std::string, size_t> times_seen;
  for (const auto& [name, value] : stats.value()) {
    value_of[name] = value;
    ++times_seen[name];
  }
  EXPECT_EQ(value_of["store.puts"], 10u);
  EXPECT_EQ(value_of["server.put_keys"], 10u);
  EXPECT_EQ(value_of["store.num_shards"], 2u);
  // STATS carries both ledgers whole, driven by their field lists: every
  // store field equals the quiesced server's in-process aggregate (times
  // travel as whole ns), and every server field appears exactly once.
  const core::StoreMetrics totals = store->AggregatedMetrics().totals;
#define PNW_EXPECT_STORE_STAT(type, name)                 \
  EXPECT_EQ(times_seen["store." #name], 1u) << #name;    \
  EXPECT_EQ(value_of["store." #name],                     \
            static_cast<uint64_t>(totals.name)) << #name;
  PNW_STORE_METRICS(PNW_EXPECT_STORE_STAT)
#undef PNW_EXPECT_STORE_STAT
#define PNW_EXPECT_SERVER_STAT(type, name) \
  EXPECT_EQ(times_seen["server." #name], 1u) << #name;
  PNW_SERVER_METRICS(PNW_EXPECT_SERVER_STAT)
#undef PNW_EXPECT_SERVER_STAT
#define PNW_COUNT_FIELD(type, name) +1
  EXPECT_EQ(stats.value().size(),
            size_t{1} PNW_STORE_METRICS(PNW_COUNT_FIELD)
                PNW_SERVER_METRICS(PNW_COUNT_FIELD));
#undef PNW_COUNT_FIELD
  // The STATS frame itself is accounted: one stats frame, and frames_in
  // covers the 10 PUTs plus it (STATS forwards no keys, so batched_keys
  // reconciles without it).
  EXPECT_EQ(server->metrics().stats_frames.load(), 1u);
  EXPECT_EQ(server->metrics().frames_in.load(), 11u);
  server->Stop();
}

// --- Concurrency: the TSan target suite ---

TEST(ServerConcurrencyTest, ManyClientsWithConcurrentCheckpoint) {
  auto store = MakeStore(4, 256);
  auto server = MustStart(store.get());
  const fs::path dir =
      fs::temp_directory_path() / "pnw_server_ckpt_e2e";
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr size_t kClients = 4;
  constexpr size_t kOpsPerClient = 200;
  std::vector<uint64_t> ok_ops(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = MustConnect(*server);
      Rng rng(1000 + c);
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        const uint64_t key = rng.NextBelow(256);
        if (rng.NextBool(0.5)) {
          if (client->Put(key, MakeValue(key, c)).ok()) {
            ++ok_ops[c];
          }
        } else {
          auto r = client->Get(key);
          if (r.ok() || r.status().IsNotFound()) {
            ++ok_ops[c];
          }
        }
      }
    });
  }
  // Checkpoints race the serving path: the per-shard locks are the
  // interlock, and TSan watches this whole dance.
  Status ckpt_status = Status::OK();
  std::thread checkpointer([&] {
    for (int i = 0; i < 3; ++i) {
      const Status s = store->Checkpoint(dir.string());
      if (!s.ok()) {
        ckpt_status = s;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  checkpointer.join();
  EXPECT_TRUE(ckpt_status.ok()) << ckpt_status.ToString();
  uint64_t total_ok = 0;
  for (const uint64_t n : ok_ops) {
    total_ok += n;
  }
  EXPECT_EQ(total_ok, kClients * kOpsPerClient);

  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] {
    return sm.frames_out.load() + sm.dropped_responses.load() ==
           sm.frames_in.load();
  }));
  EXPECT_EQ(sm.frames_in.load(), kClients * kOpsPerClient);
  const core::StoreMetrics& t = store->AggregatedMetrics().totals;
  EXPECT_EQ(t.puts + t.failed_ops + t.gets.load() + t.get_misses.load(),
            kClients * kOpsPerClient);
  server->Stop();
  fs::remove_all(dir);
}

TEST(ServerConcurrencyTest, StopWithLiveConnectionsJoinsCleanly) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto c1 = MustConnect(*server);
  auto c2 = MustConnect(*server);
  ASSERT_TRUE(c1->Put(1, MakeValue(1, 1)).ok());
  ASSERT_TRUE(c2->Put(2, MakeValue(2, 1)).ok());
  // Leave both connections open (and one with an unflushed frame queued
  // client-side) while stopping.
  c1->SendGet(1);
  server->Stop();
  // Stop is idempotent and the destructor will run it again.
  server->Stop();
  // The server is gone: the clients' next round trips fail cleanly
  // rather than hanging.
  // status-dropped: may hit EPIPE; either way Receive must not hang.
  (void)c1->Flush();
  auto r = c1->Receive();
  EXPECT_FALSE(r.ok());
}

// --- Fault injection: lifecycle battery ---

TEST(ServerE2eTest, DisconnectMidPipelineAckedWritesAreApplied) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto client = MustConnect(*server);

  // Pipeline 16 complete PUT frames plus one *partial* PUT frame. Collect
  // acks for the first 8, then slam the connection shut with the rest of
  // the responses unread (the close turns into a TCP RST, which is the
  // nastiest disconnect a server can see: in-flight unread bytes may be
  // discarded by the kernel on either side).
  std::vector<uint64_t> acked_keys;
  for (uint64_t k = 300; k < 316; ++k) {
    client->SendPut(k, MakeValue(k, 5));
  }
  ASSERT_TRUE(client->Flush().ok());
  for (size_t i = 0; i < 8; ++i) {
    auto r = client->Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().status, Status::Code::kOk);
    acked_keys.push_back(300 + i);
  }
  std::vector<uint8_t> partial;
  EncodePut(9999, 999, MakeValue(999, 5), &partial);
  partial.resize(partial.size() / 2);  // torn mid-payload
  ASSERT_TRUE(client->WriteRaw(partial).ok());
  client->Abort();

  // The contract: every *acked* write is applied (the ack followed the
  // store call, group-committed into the attached op-log when one is
  // attached); unacked complete frames are applied in full or not at
  // all; the torn frame is never decoded, hence never half-applied.
  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] { return sm.connections_closed.load() == 1; }));
  ASSERT_TRUE(WaitUntil([&] {
    return sm.frames_out.load() + sm.dropped_responses.load() ==
           sm.frames_in.load();
  }));
  EXPECT_GE(sm.frames_in.load(), 8u);
  EXPECT_LE(sm.frames_in.load(), 16u);
  EXPECT_EQ(sm.put_keys.load(), sm.frames_in.load());
  EXPECT_EQ(sm.protocol_errors.load(), 0u);

  auto probe = MustConnect(*server);
  for (const uint64_t k : acked_keys) {
    auto r = probe->Get(k);
    ASSERT_TRUE(r.ok()) << "acked key " << k << " lost: "
                        << r.status().ToString();
    EXPECT_EQ(r.value(), MakeValue(k, 5));
  }
  for (uint64_t k = 308; k < 316; ++k) {
    // Unacked: all-or-nothing. If present, the value is complete.
    auto r = probe->Get(k);
    if (r.ok()) {
      EXPECT_EQ(r.value(), MakeValue(k, 5));
    } else {
      EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
    }
  }
  auto torn = probe->Get(999);
  EXPECT_TRUE(torn.status().IsNotFound())
      << "torn frame must never half-apply";
  server->Stop();
}

TEST(ServerE2eTest, PartialFrameThenHangupLeavesServerServing) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto client = MustConnect(*server);
  std::vector<uint8_t> partial;
  EncodePut(1, 555, MakeValue(555, 1), &partial);
  partial.resize(5);  // body_len + 1 header byte only
  ASSERT_TRUE(client->WriteRaw(partial).ok());
  client->Abort();

  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] { return sm.connections_closed.load() == 1; }));
  EXPECT_EQ(sm.frames_in.load(), 0u);
  EXPECT_EQ(sm.protocol_errors.load(), 0u);  // torn != corrupt

  auto probe = MustConnect(*server);
  EXPECT_TRUE(probe->Get(555).status().IsNotFound());
  EXPECT_TRUE(probe->Put(7, MakeValue(7, 2)).ok());
  server->Stop();
}

TEST(ServerE2eTest, CorruptFrameClosesThatConnectionOnly) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto victim = MustConnect(*server);
  auto bystander = MustConnect(*server);
  // A frame with a garbage version byte is unrecoverable rot.
  std::vector<uint8_t> bad;
  EncodeGet(1, 2, &bad);
  bad[4] = 0x77;
  ASSERT_TRUE(victim->WriteRaw(bad).ok());
  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] { return sm.protocol_errors.load() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return sm.connections_closed.load() == 1; }));
  // The victim stream is dead; the bystander is untouched.
  auto r = victim->Receive();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(bystander->Put(1, MakeValue(1, 3)).ok());
  server->Stop();
}

TEST(ServerE2eTest, SlowReaderEngagesAndReleasesBackpressure) {
  auto store = MakeStore(2, 256);
  ServerOptions options;
  // Tiny valve + tiny kernel send buffer: a non-reading client backs
  // responses up into the server's own outbuf almost immediately.
  options.per_conn_outbuf_limit = 4096;
  options.so_sndbuf = 4096;
  auto server = MustStart(store.get(), options);
  // Pin the client's receive buffer small too: otherwise the kernel
  // absorbs the whole response stream and the valve never engages.
  auto connected =
      Client::Connect("127.0.0.1", server->port(), {}, /*so_rcvbuf=*/4096);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::move(connected).value();

  constexpr size_t kGets = 1500;
  for (size_t i = 0; i < kGets; ++i) {
    client->SendGet(i % 256);
  }
  ASSERT_TRUE(client->Flush().ok());

  // Without reading a byte, the valve must engage.
  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] { return sm.slow_reader_stalls.load() >= 1; }))
      << "backpressure never engaged";

  // Now drain: every response arrives, in order, and the valve releases.
  for (size_t i = 0; i < kGets; ++i) {
    auto r = client->Receive();
    ASSERT_TRUE(r.ok()) << "response " << i << ": " << r.status().ToString();
    EXPECT_EQ(r.value().request_id, i + 1);  // client ids start at 1
    EXPECT_EQ(r.value().status, Status::Code::kOk);
  }
  EXPECT_GE(sm.slow_reader_resumes.load(), 1u);
  ASSERT_TRUE(WaitUntil([&] {
    return sm.frames_out.load() + sm.dropped_responses.load() ==
           sm.frames_in.load();
  }));
  EXPECT_EQ(sm.frames_in.load(), kGets);
  EXPECT_EQ(sm.dropped_responses.load(), 0u);
  server->Stop();
}

TEST(ServerE2eTest, OverloadShedsTypedAndCountsExactly) {
  auto store = MakeStore(2, 64);
  ServerOptions options;
  options.global_inflight_limit = 2;
  auto server = MustStart(store.get(), options);
  auto client = MustConnect(*server);

  constexpr size_t kPuts = 50;
  for (uint64_t k = 0; k < kPuts; ++k) {
    client->SendPut(400 + k, MakeValue(400 + k, 6));
  }
  ASSERT_TRUE(client->Flush().ok());
  size_t ok_count = 0, overloaded_count = 0;
  for (size_t i = 0; i < kPuts; ++i) {
    auto r = client->Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.value().status == Status::Code::kOk) {
      ++ok_count;
    } else {
      ASSERT_EQ(r.value().status, Status::Code::kOverloaded)
          << "rejects must be typed kOverloaded";
      ++overloaded_count;
    }
  }
  EXPECT_EQ(ok_count + overloaded_count, kPuts);
  EXPECT_GE(overloaded_count, 1u) << "budget of 2 must shed a 50-deep burst";

  const ServerMetrics& sm = server->metrics();
  ASSERT_TRUE(WaitUntil([&] {
    return sm.frames_out.load() + sm.dropped_responses.load() ==
           sm.frames_in.load();
  }));
  EXPECT_EQ(sm.overload_rejects.load(), overloaded_count);
  EXPECT_EQ(sm.put_keys.load(), ok_count);  // rejected keys never forwarded
  const core::StoreMetrics& t = store->AggregatedMetrics().totals;
  EXPECT_EQ(t.puts + t.failed_ops, ok_count);
  server->Stop();
}

TEST(ServerE2eTest, UnknownOpcodeGetsTypedErrorAndStreamSurvives) {
  auto store = MakeStore(2, 64);
  auto server = MustStart(store.get());
  auto client = MustConnect(*server);
  // Hand-build a frame with an undefined opcode but intact framing.
  std::vector<uint8_t> frame;
  EncodeGet(77, 5, &frame);
  frame[5] = 0x6f;  // opcode byte
  ASSERT_TRUE(client->WriteRaw(frame).ok());
  auto r = client->Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().request_id, 77u);
  EXPECT_EQ(r.value().status, Status::Code::kInvalidArgument);
  // Same connection still serves real traffic.
  EXPECT_TRUE(client->Put(5, MakeValue(5, 4)).ok());
  EXPECT_EQ(server->metrics().decode_errors.load(), 1u);
  server->Stop();
}

}  // namespace
}  // namespace pnw::server
