#include "src/core/metrics.h"

#include <sstream>

namespace pnw::core {

double StoreMetrics::BitUpdatesPer512() const {
  if (put_payload_bits == 0) {
    return 0.0;
  }
  return static_cast<double>(put_bits_written) * 512.0 /
         static_cast<double>(put_payload_bits);
}

double StoreMetrics::AvgPutDeviceNs() const {
  if (puts == 0) {
    return 0.0;
  }
  return put_device_ns / static_cast<double>(puts);
}

double StoreMetrics::AvgLinesPerPut() const {
  if (puts == 0) {
    return 0.0;
  }
  return static_cast<double>(put_lines_written) / static_cast<double>(puts);
}

double StoreMetrics::AvgPredictNs() const {
  if (puts == 0) {
    return 0.0;
  }
  return predict_wall_ns / static_cast<double>(puts);
}

void StoreMetrics::Accumulate(const StoreMetrics& other) {
#define PNW_ADD_FIELD(type, name) name += other.name;
  PNW_STORE_METRICS(PNW_ADD_FIELD)
#undef PNW_ADD_FIELD
}

std::string StoreMetrics::ToString() const {
  std::ostringstream os;
#define PNW_PRINT_FIELD(type, name) os << #name "=" << (name) << ' ';
  PNW_STORE_METRICS(PNW_PRINT_FIELD)
#undef PNW_PRINT_FIELD
  os << "bit_updates/512b=" << BitUpdatesPer512()
     << " sim_device_ns/put=" << AvgPutDeviceNs()
     << " lines/put=" << AvgLinesPerPut();
  return os.str();
}

}  // namespace pnw::core
