#ifndef PNW_NVM_LATENCY_MODEL_H_
#define PNW_NVM_LATENCY_MODEL_H_

#include <cstdint>

namespace pnw::nvm {

/// Latency parameters of the simulated memory devices. Defaults follow the
/// paper's assumptions: DRAM at ~60 ns and 3D-XPoint-class NVM writes at
/// ~600 ns per cache line (Izraelevitz et al., cited as [41] in the paper),
/// with NVM reads at DRAM-like speed (Table I: PCM read 50-70 ns).
struct LatencyParams {
  double dram_read_ns = 60.0;
  double dram_write_ns = 60.0;
  double nvm_read_ns = 70.0;
  double nvm_write_ns = 600.0;
};

/// Converts line-level access counts into simulated time. The simulator
/// charges per *cache line* touched, matching the paper's observation that
/// "each method that updates fewer bits has a higher chance of having a
/// lower write latency because it has to update fewer cache lines".
class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(const LatencyParams& params) : params_(params) {}

  double NvmReadCostNs(uint64_t lines) const {
    return params_.nvm_read_ns * static_cast<double>(lines);
  }
  double NvmWriteCostNs(uint64_t lines) const {
    return params_.nvm_write_ns * static_cast<double>(lines);
  }

  const LatencyParams& params() const { return params_; }

 private:
  LatencyParams params_;
};

}  // namespace pnw::nvm

#endif  // PNW_NVM_LATENCY_MODEL_H_
