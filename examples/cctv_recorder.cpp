// CCTV recorder example (the paper's Section VI-C motivation): a
// surveillance camera persists frames to NVM. Consecutive frames are nearly
// identical, so PNW's similarity-steered placement slashes bit flips and
// cache-line writes compared to a conventional circular frame buffer --
// extending the lifetime of the recorder's PCM.
//
//   ./build/examples/cctv_recorder

#include <cstdio>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/schemes/write_scheme.h"
#include "src/workloads/video_frames.h"

namespace {

/// A conventional recorder: frames written round-robin, every cell
/// rewritten.
double ConventionalBitsPer512(const pnw::workloads::Dataset& video) {
  const size_t n = video.old_data.size();
  const size_t block = video.value_bytes;
  pnw::nvm::NvmConfig config;
  config.size_bytes = n * block;
  pnw::nvm::NvmDevice device(config);
  auto scheme = pnw::schemes::CreateScheme(
      pnw::schemes::SchemeKind::kConventional, &device, n * block, block);
  for (size_t i = 0; i < n; ++i) {
    pnw::AbortOnError(scheme->Write(i * block, video.old_data[i]), "scheme write");
  }
  device.ResetCounters();
  uint64_t payload = 0;
  for (size_t i = 0; i < video.new_data.size(); ++i) {
    pnw::AbortOnError(scheme->Write((i % n) * block, video.new_data[i]), "scheme write");
    payload += block * 8;
  }
  return static_cast<double>(device.counters().total_bits_written) * 512.0 /
         static_cast<double>(payload);
}

}  // namespace

int main() {
  // Two minutes of a calm intersection at 10 fps, downscaled 80x60.
  pnw::workloads::VideoFramesOptions gen;
  gen.profile = pnw::workloads::VideoProfile::kSherbrooke;
  gen.num_old = 300;   // 30 s retained as "old" footage
  gen.num_new = 900;   // the stream to record
  auto video = pnw::workloads::GenerateVideoFrames(gen);
  std::printf("CCTV recorder: %zu warm frames + %zu streamed frames of %zu "
              "bytes\n", video.old_data.size(), video.new_data.size(),
              video.value_bytes);

  pnw::core::PnwOptions options;
  options.value_bytes = video.value_bytes;
  options.initial_buckets = video.old_data.size();
  options.capacity_buckets = video.old_data.size();
  options.num_clusters = 8;
  options.max_features = 256;
  options.store_keys_in_data_zone = false;  // frame id lives in the index
  options.occupancy_flags_on_nvm = false;
  auto store = pnw::core::PnwStore::Open(options).value();

  std::vector<uint64_t> frame_ids(video.old_data.size());
  for (size_t i = 0; i < frame_ids.size(); ++i) {
    frame_ids[i] = i;
  }
  if (!store->Bootstrap(frame_ids, video.old_data).ok()) {
    std::fprintf(stderr, "bootstrap failed\n");
    return 1;
  }
  // Retention policy: keep the newest ~half of the zone; expired frames
  // become the dynamic address pool.
  for (uint64_t f = 0; f < frame_ids.size() / 2; ++f) {
    pnw::AbortOnError(store->Delete(f), "delete");
  }
  pnw::AbortOnError(store->TrainModel(), "train");
  store->ResetWearAndMetrics();

  uint64_t next_frame = frame_ids.size();
  uint64_t oldest = frame_ids.size() / 2;
  for (const auto& frame : video.new_data) {
    if (!store->Put(next_frame++, frame).ok()) {
      std::fprintf(stderr, "record failed at frame %llu\n",
                   static_cast<unsigned long long>(next_frame - 1));
      return 1;
    }
    pnw::AbortOnError(store->Delete(oldest++), "delete");  // retention expiry
  }

  const auto& m = store->metrics();
  const double conventional = ConventionalBitsPer512(video);
  std::printf("\nResults over %llu recorded frames:\n",
              static_cast<unsigned long long>(m.puts));
  std::printf("  PNW bit updates / 512b : %.1f\n", m.BitUpdatesPer512());
  std::printf("  conventional recorder  : %.1f\n", conventional);
  std::printf("  endurance extension    : %.1fx fewer cell writes\n",
              conventional / m.BitUpdatesPer512());
  std::printf("  sim device us / record : %.1f (simulated NVM)\n",
              m.AvgPutDeviceNs() / 1000.0);
  std::printf("  predict us / record    : %.1f (measured wall clock)\n",
              m.AvgPredictNs() / 1000.0);
  std::printf("  max writes to any slot : %u (avg %.1f)\n",
              store->wear_tracker().MaxBucketWrites(),
              static_cast<double>(m.puts) /
                  static_cast<double>(store->active_buckets()));
  return 0;
}
