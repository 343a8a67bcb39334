#include "src/persist/store_codec.h"

#include <optional>
#include <utility>
#include <vector>

namespace pnw::persist {

namespace {

// StoreMetrics field codecs: u64 counters travel as U64, simulated and
// measured times as Double (snapshot_schema_lint maps the list's types the
// same way). The read-side slots are relaxed atomics wrapped for
// copyability, so they decode through a plain temporary.
void WriteField(uint64_t value, BufferWriter& w) { w.PutU64(value); }
void WriteField(double value, BufferWriter& w) { w.PutDouble(value); }
template <typename T>
void WriteField(const core::RelaxedCounter<T>& counter, BufferWriter& w) {
  WriteField(counter.load(), w);
}

Status ReadField(BufferReader& r, uint64_t* value) { return r.GetU64(value); }
Status ReadField(BufferReader& r, double* value) { return r.GetDouble(value); }
template <typename T>
Status ReadField(BufferReader& r, core::RelaxedCounter<T>* counter) {
  T value{};
  PNW_RETURN_IF_ERROR(ReadField(r, &value));
  *counter = value;
  return Status::OK();
}

}  // namespace

void EncodePnwOptions(const core::PnwOptions& options, BufferWriter& w) {
  w.PutU64(options.value_bytes);
  w.PutU64(options.initial_buckets);
  w.PutU64(options.capacity_buckets);
  w.PutU64(options.num_clusters);
  w.PutU64(options.max_features);
  w.PutU64(options.pca_components);
  w.PutU64(options.training_sample_cap);
  w.PutU64(options.encode_byte_stride);
  w.PutU64(options.train_threads);
  w.PutU64(options.max_training_iterations);
  w.PutDouble(options.load_factor);
  w.PutBool(options.auto_retrain);
  w.PutU64(options.retrain_min_interval);
  w.PutBool(options.background_retrain);
  w.PutBool(options.train_on_bootstrap);
  w.PutU8(static_cast<uint8_t>(options.index_placement));
  w.PutU8(static_cast<uint8_t>(options.update_mode));
  w.PutBool(options.store_keys_in_data_zone);
  w.PutBool(options.occupancy_flags_on_nvm);
  w.PutBool(options.track_bit_wear);
  w.PutBool(options.start_gap_wear_leveling);
  w.PutU64(options.gap_write_interval);
  w.PutDouble(options.migration_hot_multiplier);
  w.PutU64(options.migration_min_writes);
  w.PutU64(options.seed);
  w.PutDouble(options.latency.dram_read_ns);
  w.PutDouble(options.latency.dram_write_ns);
  w.PutDouble(options.latency.nvm_read_ns);
  w.PutDouble(options.latency.nvm_write_ns);
}

Status DecodePnwOptions(BufferReader& r, core::PnwOptions* options) {
  core::PnwOptions o;
  uint64_t u = 0;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.value_bytes = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.initial_buckets = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.capacity_buckets = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.num_clusters = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.max_features = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.pca_components = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.training_sample_cap = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.encode_byte_stride = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.train_threads = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.max_training_iterations = u;
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.load_factor));
  PNW_RETURN_IF_ERROR(r.GetBool(&o.auto_retrain));
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.retrain_min_interval = u;
  PNW_RETURN_IF_ERROR(r.GetBool(&o.background_retrain));
  PNW_RETURN_IF_ERROR(r.GetBool(&o.train_on_bootstrap));
  uint8_t e = 0;
  PNW_RETURN_IF_ERROR(r.GetU8(&e));
  if (e > static_cast<uint8_t>(core::IndexPlacement::kNvmPathHash)) {
    return Status::Corruption("snapshot options: bad index placement");
  }
  o.index_placement = static_cast<core::IndexPlacement>(e);
  PNW_RETURN_IF_ERROR(r.GetU8(&e));
  if (e > static_cast<uint8_t>(core::UpdateMode::kLatencyFirst)) {
    return Status::Corruption("snapshot options: bad update mode");
  }
  o.update_mode = static_cast<core::UpdateMode>(e);
  PNW_RETURN_IF_ERROR(r.GetBool(&o.store_keys_in_data_zone));
  PNW_RETURN_IF_ERROR(r.GetBool(&o.occupancy_flags_on_nvm));
  PNW_RETURN_IF_ERROR(r.GetBool(&o.track_bit_wear));
  PNW_RETURN_IF_ERROR(r.GetBool(&o.start_gap_wear_leveling));
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.gap_write_interval = u;
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.migration_hot_multiplier));
  PNW_RETURN_IF_ERROR(r.GetU64(&u));
  o.migration_min_writes = u;
  PNW_RETURN_IF_ERROR(r.GetU64(&o.seed));
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.latency.dram_read_ns));
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.latency.dram_write_ns));
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.latency.nvm_read_ns));
  PNW_RETURN_IF_ERROR(r.GetDouble(&o.latency.nvm_write_ns));
  *options = o;
  return Status::OK();
}

void EncodeMatrix(const ml::Matrix& m, BufferWriter& w) {
  w.PutU64(m.rows());
  w.PutU64(m.cols());
  w.PutFloatVec(m.data());
}

Status DecodeMatrix(BufferReader& r, ml::Matrix* m) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  PNW_RETURN_IF_ERROR(r.GetU64(&rows));
  PNW_RETURN_IF_ERROR(r.GetU64(&cols));
  std::vector<float> data;
  PNW_RETURN_IF_ERROR(r.GetFloatVec(&data));
  // Division-form bound first: rows * cols on crafted dimensions can wrap
  // to a small value and slip past the equality check below.
  if (cols != 0 && rows > data.size() / cols) {
    return Status::Corruption("serialized matrix shape overflows its data");
  }
  if (data.size() != rows * cols) {
    return Status::Corruption("serialized matrix shape/data mismatch");
  }
  ml::Matrix out(rows, cols);
  for (size_t row = 0; row < rows; ++row) {
    auto dst = out.Row(row);
    for (size_t col = 0; col < cols; ++col) {
      dst[col] = data[row * cols + col];
    }
  }
  *m = std::move(out);
  return Status::OK();
}

void EncodeValueModel(const core::ValueModel* model, BufferWriter& w) {
  w.PutBool(model != nullptr);
  if (model == nullptr) {
    return;
  }
  const ml::BitFeatureEncoder& encoder = model->encoder();
  w.PutU64(encoder.value_bytes());
  w.PutU64(encoder.dims());
  w.PutBool(encoder.folded());
  w.PutU64(encoder.byte_stride());
  const auto& pca = model->pca();
  w.PutBool(pca.has_value());
  if (pca.has_value()) {
    w.PutFloatVec(pca->mean());
    EncodeMatrix(pca->components(), w);
    w.PutDoubleVec(pca->explained_variances());
    w.PutDouble(pca->total_variance());
  }
  EncodeMatrix(model->kmeans().centroids(), w);
  w.PutDouble(model->kmeans().sse());
}

Result<std::shared_ptr<const core::ValueModel>> DecodeValueModel(
    BufferReader& r) {
  bool present = false;
  PNW_RETURN_IF_ERROR(r.GetBool(&present));
  if (!present) {
    return std::shared_ptr<const core::ValueModel>(nullptr);
  }
  uint64_t value_bytes = 0;
  uint64_t dims = 0;
  bool folded = false;
  uint64_t byte_stride = 0;
  PNW_RETURN_IF_ERROR(r.GetU64(&value_bytes));
  PNW_RETURN_IF_ERROR(r.GetU64(&dims));
  PNW_RETURN_IF_ERROR(r.GetBool(&folded));
  PNW_RETURN_IF_ERROR(r.GetU64(&byte_stride));
  // The constructor re-derives dims from (value_bytes, max_features); a
  // folded encoder round-trips through max_features = dims (dims is a
  // multiple of 8 by construction), an unfolded one through 0.
  ml::BitFeatureEncoder encoder(value_bytes, folded ? dims : 0, byte_stride);
  if (encoder.dims() != dims || encoder.folded() != folded) {
    return Status::Corruption(
        "serialized encoder geometry does not round-trip");
  }
  std::optional<ml::PcaModel> pca;
  bool has_pca = false;
  PNW_RETURN_IF_ERROR(r.GetBool(&has_pca));
  if (has_pca) {
    std::vector<float> mean;
    ml::Matrix components;
    std::vector<double> variances;
    double total_variance = 0.0;
    PNW_RETURN_IF_ERROR(r.GetFloatVec(&mean));
    PNW_RETURN_IF_ERROR(DecodeMatrix(r, &components));
    PNW_RETURN_IF_ERROR(r.GetDoubleVec(&variances));
    PNW_RETURN_IF_ERROR(r.GetDouble(&total_variance));
    if (mean.size() != components.cols() ||
        variances.size() != components.rows()) {
      return Status::Corruption("serialized PCA model shape mismatch");
    }
    pca.emplace(std::move(mean), std::move(components), std::move(variances),
                total_variance);
  }
  ml::Matrix centroids;
  double sse = 0.0;
  PNW_RETURN_IF_ERROR(DecodeMatrix(r, &centroids));
  PNW_RETURN_IF_ERROR(r.GetDouble(&sse));
  if (centroids.rows() == 0) {
    return Status::Corruption("serialized model has no centroids");
  }
  const size_t expected_dims =
      pca.has_value() ? pca->num_components() : encoder.dims();
  if (centroids.cols() != expected_dims) {
    return Status::Corruption(
        "serialized centroid dimension does not match the feature pipeline");
  }
  return std::shared_ptr<const core::ValueModel>(
      std::make_shared<const core::ValueModel>(
          encoder, std::move(pca),
          ml::KMeansModel(std::move(centroids), sse)));
}

void EncodeStoreMetrics(const core::StoreMetrics& m, BufferWriter& w) {
#define PNW_WRITE_FIELD(type, name) WriteField(m.name, w);
  PNW_STORE_COUNTERS(PNW_WRITE_FIELD)
#undef PNW_WRITE_FIELD
}

Status DecodeStoreMetrics(BufferReader& r, core::StoreMetrics* m) {
  core::StoreMetrics out;
#define PNW_READ_FIELD(type, name) PNW_RETURN_IF_ERROR(ReadField(r, &out.name));
  PNW_STORE_COUNTERS(PNW_READ_FIELD)
#undef PNW_READ_FIELD
  *m = out;
  return Status::OK();
}

void EncodeNvmCounters(const nvm::NvmCounters& c, BufferWriter& w) {
  w.PutU64(c.total_bits_written);
  w.PutU64(c.total_words_written);
  w.PutU64(c.total_lines_written);
  w.PutU64(c.total_lines_read);
  w.PutU64(c.total_write_ops);
  w.PutU64(c.total_read_ops);
  w.PutU64(c.total_payload_bits);
  w.PutDouble(c.total_latency_ns);
}

Status DecodeNvmCounters(BufferReader& r, nvm::NvmCounters* c) {
  nvm::NvmCounters out;
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_bits_written));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_words_written));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_lines_written));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_lines_read));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_write_ops));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_read_ops));
  PNW_RETURN_IF_ERROR(r.GetU64(&out.total_payload_bits));
  PNW_RETURN_IF_ERROR(r.GetDouble(&out.total_latency_ns));
  *c = out;
  return Status::OK();
}

}  // namespace pnw::persist
