// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions (and around replays of the workload's
// inputs through those functions). Each client thread owns one Tracer; a
// span records its name, start, end, the span that was open when it began
// (its parent) and the operation id it belongs to. Nothing is aggregated
// while recording: durations, percentiles and self times (a span minus the
// time its children cover) are computed after the run, and the raw spans
// are written out as a TSV when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records. The string form is
/// "<layer>.<what>", layers named after the repository's src/ modules.
enum class SpanName : uint16_t {
  kClientOp,            // one client operation, stamp + call + verify
  kCorePut,             // PnwStore/ShardedPnwStore::Put
  kCoreGet,             // ...::Get
  kCoreDelete,          // ...::Delete
  kMlTrain,             // PnwStore::TrainModel during set-up
  kMlPredict,           // ValueModel::Predict replay
  kIndexGet,            // DramHashIndex::Get replay
  kNvmDiff,             // NvmDevice::WriteDifferential replay
  kPersistAppend,       // OpLogWriter::Append replay
  kPersistSync,         // OpLogWriter::Sync replay
  kPersistCheckpoint,   // ShardedPnwStore::Checkpoint
  kServerPipeline,      // client flush -> last response of one pipeline
  kServerCodec,         // one frame's full encode/decode round (replay)
  kCodecEncodeRequest,  // Encode{Get,Put}
  kCodecDecodeRequest,  // ExtractFrame + DecodeRequest
  kCodecEncodeResponse, // EncodeResponse
  kCodecDecodeResponse, // ExtractFrame + DecodeResponse
  kCount,
};

const char* SpanNameString(SpanName name);

inline constexpr uint32_t kNoSpan = 0xffffffffu;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op_id = 0;
  uint32_t parent = kNoSpan;
  SpanName name = SpanName::kClientOp;
  uint16_t thread = 0;
};

/// Monotonic wall clock in nanoseconds (steady_clock).
uint64_t NowNs();

/// Latency histogram of fixed size: exact below 1024 ns, then 512
/// log-linear buckets per power of two (relative width under 0.2%) up to
/// 2^36 ns. Recording never allocates, so a phase's memory does not grow
/// with its op count.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile, q in (0, 1], as the midpoint of the bucket
  /// holding that rank; 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

/// One thread's span buffer. Capacity is fixed up front so recording never
/// allocates; spans past capacity are counted as dropped (their children
/// then have no parent).
class Tracer {
 public:
  Tracer(uint16_t thread, size_t capacity);

  uint32_t Begin(SpanName name, uint64_t op_id);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint16_t thread_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t op_id)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, op_id) : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Per-name aggregate over any number of tracers.
struct SpanSummary {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  /// Duration minus the time covered by child spans.
  uint64_t self_ns = 0;
  LatencyHistogram durations_ns;

  double MeanNs() const;
  /// Nearest-rank percentile of the durations, q in (0, 1]; 0 if empty.
  double PercentileNs(double q) const { return durations_ns.Percentile(q); }
};

/// Summaries indexed by SpanName.
std::vector<SpanSummary> Summarize(const std::vector<const Tracer*>& tracers);

/// Append every span of `tracers` to `path` as TSV
/// (thread, span index, parent, op id, name, start_ns, end_ns).
bool WriteSpansTsv(const std::string& path,
                   const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
