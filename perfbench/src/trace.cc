#include "trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientOp:
      return "client.op";
    case SpanName::kCorePut:
      return "core.put";
    case SpanName::kCoreGet:
      return "core.get";
    case SpanName::kCoreDelete:
      return "core.delete";
    case SpanName::kMlTrain:
      return "ml.train";
    case SpanName::kMlPredict:
      return "ml.predict";
    case SpanName::kIndexGet:
      return "index.get";
    case SpanName::kNvmDiff:
      return "nvm.diff";
    case SpanName::kPersistAppend:
      return "persist.append";
    case SpanName::kPersistSync:
      return "persist.sync";
    case SpanName::kPersistCheckpoint:
      return "persist.checkpoint";
    case SpanName::kServerPipeline:
      return "server.pipeline";
    case SpanName::kServerCodec:
      return "server.codec";
    case SpanName::kCodecEncodeRequest:
      return "server.codec.encode_request";
    case SpanName::kCodecDecodeRequest:
      return "server.codec.decode_request";
    case SpanName::kCodecEncodeResponse:
      return "server.codec.encode_response";
    case SpanName::kCodecDecodeResponse:
      return "server.codec.decode_response";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// LatencyHistogram layout: a value v lands in bucket shift * kSub +
// (v >> shift), where shift = max(0, bit_width(v) - kSubBits - 1), so
// values below 2 * kSub are exact and every power of two above holds kSub
// buckets. Values from 2^kMaxBits ns (over a minute) share the last one.
constexpr int kSubBits = 9;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr int kMaxBits = 36;
constexpr size_t kHistogramBuckets =
    static_cast<size_t>((kMaxBits - kSubBits) * kSub + kSub);

size_t BucketOf(uint64_t v) {
  const int width = std::bit_width(v);
  const int shift = std::max(0, width - kSubBits - 1);
  const size_t bucket =
      static_cast<size_t>(shift) * kSub + static_cast<size_t>(v >> shift);
  return std::min(bucket, kHistogramBuckets - 1);
}

/// Midpoint of a bucket's value range.
double BucketMid(size_t bucket) {
  if (bucket < 2 * kSub) {
    return static_cast<double>(bucket);
  }
  const uint64_t shift = bucket / kSub - 1;
  const uint64_t low = (bucket - shift * kSub) << shift;
  return static_cast<double>(low) +
         static_cast<double>((uint64_t{1} << shift) - 1) / 2.0;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistogramBuckets, 0) {}

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return BucketMid(i);
    }
  }
  return BucketMid(buckets_.size() - 1);
}

Tracer::Tracer(uint16_t thread, size_t capacity)
    : thread_(thread), capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(16);
}

uint32_t Tracer::Begin(SpanName name, uint64_t op_id) {
  const uint32_t parent = stack_.empty() ? kNoSpan : stack_.back();
  if (spans_.size() >= capacity_) {
    ++dropped_;
    stack_.push_back(kNoSpan);
    return kNoSpan;
  }
  const auto id = static_cast<uint32_t>(spans_.size());
  Span span;
  span.op_id = op_id;
  span.parent = parent;
  span.name = name;
  span.thread = thread_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  if (!stack_.empty()) {
    stack_.pop_back();
  }
  if (id != kNoSpan) {
    spans_[id].end_ns = NowNs();
  }
}

double SpanSummary::MeanNs() const {
  return count == 0 ? 0.0
                    : static_cast<double>(total_ns) / static_cast<double>(count);
}


std::vector<SpanSummary> Summarize(const std::vector<const Tracer*>& tracers) {
  std::vector<SpanSummary> out(static_cast<size_t>(SpanName::kCount));
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    // Parents precede their children in the buffer, so one reverse pass
    // sees every child before its parent.
    for (size_t i = spans.size(); i-- > 0;) {
      const Span& s = spans[i];
      const uint64_t dur = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
      if (s.parent != kNoSpan) {
        child_ns[s.parent] += dur;
      }
      SpanSummary& summary = out[static_cast<size_t>(s.name)];
      ++summary.count;
      summary.total_ns += dur;
      summary.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
      summary.durations_ns.Record(dur);
    }
  }
  return out;
}

bool WriteSpansTsv(const std::string& path,
                   const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread\tspan\tparent\top_id\tname\tstart_ns\tend_ns\n");
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%u\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned>(s.thread), i,
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op_id),
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
