// pnw_server: the networked front-end binary. Opens a ShardedPnwStore,
// bootstraps it (the store requires a trained model before serving PUTs),
// optionally attaches a strict-durability op-log under --data-dir, then
// serves the length-prefixed binary protocol until SIGINT/SIGTERM.
//
//   pnw_server --port=0 --shards=4 --buckets=4096 --value-bytes=128
//              [--data-dir=/path/to/dir]
//
// Any other argument, or a malformed number, prints the usage line and
// exits 2. --port=0 binds an ephemeral port; the assigned one is announced
// on stdout as "pnw_server listening on 127.0.0.1:PORT" (machine-parseable:
// scripts/remote_smoke.py and the e2e fixtures scrape it).
//
// With --data-dir the store checkpoints into the directory (a new
// generation, so a previous run's committed one stays intact until the new
// manifest commits) and reopens with op_log_sync_every=1, so every acked
// write is fsync-durable -- the group commit the pipelined server
// amortizes is then a real fsync per store batch, not a no-op.
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sharded_store.h"
#include "src/persist/recovery.h"
#include "src/server/server.h"
#include "src/util/status.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int /*signum*/) { g_stop = 1; }

constexpr char kUsage[] =
    "usage: pnw_server [--port=N] [--shards=N] [--buckets=N] "
    "[--value-bytes=N] [--data-dir=PATH]\n";

struct Flags {
  uint64_t port = 0;
  uint64_t shards = 4;
  uint64_t buckets = 4096;
  uint64_t value_bytes = 128;
  const char* data_dir = nullptr;
};

/// A command-line mistake: say what and print the usage line.
bool UsageError(const char* what, const char* arg) {
  std::fprintf(stderr, "pnw_server: %s '%s'\n%s", what, arg, kUsage);
  return false;
}

/// Every argument must be one of the flags above, and a number must be
/// all digits and at most `max`: a misspelled --data-dir would otherwise
/// serve a store with no checkpoint and no op-log, and strtoull alone
/// reads "--port=abc" as 0. Returns false after a UsageError.
bool ParseFlags(int argc, char** argv, Flags& flags) {
  struct Numeric {
    const char* prefix;
    uint64_t* value;
    uint64_t max;
  };
  const Numeric numeric[] = {
      {"--port=", &flags.port, 65535},
      {"--shards=", &flags.shards, UINT64_MAX},
      {"--buckets=", &flags.buckets, UINT64_MAX},
      {"--value-bytes=", &flags.value_bytes, UINT64_MAX},
  };
  constexpr char kDataDir[] = "--data-dir=";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, kDataDir, sizeof(kDataDir) - 1) == 0) {
      flags.data_dir = arg + sizeof(kDataDir) - 1;
      continue;
    }
    const Numeric* flag = nullptr;
    for (const Numeric& n : numeric) {
      if (std::strncmp(arg, n.prefix, std::strlen(n.prefix)) == 0) {
        flag = &n;
      }
    }
    if (flag == nullptr) {
      return UsageError("unknown argument", arg);
    }
    const char* digits = arg + std::strlen(flag->prefix);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(digits, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(digits[0])) ||
        *end != '\0' || errno != 0 || v > flag->max) {
      return UsageError("malformed number in", arg);
    }
    *flag->value = v;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) {
    return 2;
  }
  const auto port = static_cast<uint16_t>(flags.port);
  const size_t shards = flags.shards;
  const size_t buckets = flags.buckets;
  const size_t value_bytes = flags.value_bytes;
  const char* data_dir = flags.data_dir;

  pnw::core::ShardedOptions options;
  options.num_shards = shards;
  options.store.value_bytes = value_bytes;
  options.store.initial_buckets = buckets;
  options.store.capacity_buckets = buckets * 2;
  options.store.num_clusters = 8;
  options.store.max_features = 256;
  options.store.load_factor = 0.85;

  auto opened = pnw::core::ShardedPnwStore::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "pnw_server: open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(opened).value();

  // The placement model trains on the bootstrap corpus; serving PUTs
  // before Bootstrap is a kFailedPrecondition by store contract.
  {
    std::vector<uint64_t> keys(buckets / 2);
    std::vector<std::vector<uint8_t>> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i;
      values[i].resize(value_bytes);
      for (size_t b = 0; b < value_bytes; ++b) {
        values[i][b] = static_cast<uint8_t>((i * 131 + b * 17) & 0xff);
      }
    }
    const pnw::Status s = store->Bootstrap(keys, values);
    if (!s.ok()) {
      std::fprintf(stderr, "pnw_server: bootstrap failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  if (data_dir != nullptr) {
    const pnw::Status ckpt = store->Checkpoint(data_dir);
    if (!ckpt.ok()) {
      std::fprintf(stderr, "pnw_server: checkpoint failed: %s\n",
                   ckpt.ToString().c_str());
      return 1;
    }
    pnw::persist::RecoveryOptions recovery;
    recovery.op_log_sync_every = 1;  // strict durability: fsync per batch
    auto reopened = pnw::core::ShardedPnwStore::Open(data_dir, recovery);
    if (!reopened.ok()) {
      std::fprintf(stderr, "pnw_server: reopen failed: %s\n",
                   reopened.status().ToString().c_str());
      return 1;
    }
    store = std::move(reopened).value();
  }

  pnw::server::ServerOptions server_options;
  server_options.port = port;
  auto started = pnw::server::PnwServer::Start(store.get(), server_options);
  if (!started.ok()) {
    std::fprintf(stderr, "pnw_server: start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(started).value();

  std::printf("pnw_server listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server->port()));
  // status-dropped: the banner is a liveness hint for wrappers; a failed
  // flush of stdout must not take the server down.
  (void)std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_stop == 0) {
    pause();  // returns on any signal; the loop re-checks the flag
  }

  server->Stop();
  const std::string summary = server->metrics().ToString();
  std::fprintf(stderr, "pnw_server: stopped. %s\n", summary.c_str());
  return 0;
}
