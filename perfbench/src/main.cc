// The PNW benchmark's main program. One invocation runs one workload from one seed
// and prints every metric by name, unit and sample count, then a JSON
// object on the last line of stdout. It exits 1 when any correctness or
// reconcile check failed and 2 on a usage error.
//
//   pnw_perfbench --workload paper_replace --seed 1 --seconds 10 --trace 0
//                 --work-dir DIR [--scale full|small]
//
// --trace 0 is the untraced run: the end-to-end metrics, with set-up timed
// kSetupRepeats times. --trace 1 is the traced run: an untraced twin and a
// traced phase under the same per-client op cap, the replays, and the
// per-layer metrics, plus the tracing overhead between the two phases.
// perfbench/run.py builds this binary and wraps its output.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: pnw_perfbench --workload "
               "paper_replace|ycsb_b_wire|ycsb_a_durable --seed N "
               "--seconds S --trace 0|1 --work-dir DIR "
               "[--scale full|small]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "small") {
        return false;
      }
      args->scale = value == "small" ? Scale::kSmall : Scale::kFull;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "paper_replace") return MakePaperReplace(args);
  if (args.workload == "ycsb_b_wire") return MakeYcsbWire(args);
  if (args.workload == "ycsb_a_durable") return MakeYcsbDurable(args);
  return nullptr;
}

double Seconds(uint64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e9;
}

double OpsPerSecond(const PhaseResult& phase) {
  return phase.seconds > 0.0
             ? static_cast<double>(phase.Ops()) / phase.seconds
             : 0.0;
}

/// The end-to-end timings of a phase: throughput and latency percentiles
/// of each complete measurement window, median over the windows.
struct Timings {
  std::vector<double> ops_s, put_p50, put_p99, get_p50, get_p99;
  uint64_t ops = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
};

Timings WindowedTimings(const PhaseResult& phase) {
  Timings t;
  size_t windows = phase.clients.empty() ? 0 : kWindows;
  for (const ClientLog& log : phase.clients) {
    windows = std::min(windows, log.closed);
  }
  for (size_t w = 0; w < windows; ++w) {
    LatencyHistogram puts;
    LatencyHistogram gets;
    uint64_t ops = 0;
    for (const ClientLog& log : phase.clients) {
      puts.Merge(log.windows[w].put);
      gets.Merge(log.windows[w].get);
      ops += log.windows[w].ops;
    }
    t.ops += ops;
    t.puts += puts.count();
    t.gets += gets.count();
    t.ops_s.push_back(static_cast<double>(ops) / phase.window_seconds);
    if (puts.count() != 0) {
      t.put_p50.push_back(puts.Percentile(0.50));
      t.put_p99.push_back(puts.Percentile(0.99));
    }
    if (gets.count() != 0) {
      t.get_p50.push_back(gets.Percentile(0.50));
      t.get_p99.push_back(gets.Percentile(0.99));
    }
  }
  return t;
}

/// Setup, Run, Snapshot, Replay (traced), Check and Teardown of one store.
/// The phase's logs (and tracers) are allocated before the resident-set
/// baseline, so rss_growth_mib is what set-up and the phase add.
PhaseResult MeasureOnce(Workload& w, const RunLimits& limits, Tracer* setup,
                        Tracer* replay, Report& report, double* setup_s,
                        double* rss_growth_mib) {
  PhaseResult phase =
      NewPhase(w.Clients(), setup != nullptr, w.TracedOpsPerClient());
  const double rss0 = RssMib();
  const uint64_t t0 = NowNs();
  const pnw::Status s = w.Setup(setup);
  *setup_s = Seconds(t0);
  if (!s.ok()) {
    report.Fail("setup: " + s.ToString());
    w.Teardown();
    return PhaseResult{};
  }
  w.Run(limits, phase);
  *rss_growth_mib = RssMib() - rss0;
  w.Snapshot(phase);
  if (replay != nullptr) {
    w.Replay(phase, replay);
  }
  w.Check(phase, report);
  w.Teardown();
  report.attempted += phase.Ops();
  return phase;
}

void RunUntraced(Workload& w, const Args& args, Report& report) {
  std::vector<double> setups(1);
  double rss_mib = 0.0;
  const PhaseResult phase =
      MeasureOnce(w, RunLimits{args.seconds, 0}, nullptr, nullptr, report,
                  &setups[0], &rss_mib);
  for (int i = 1; i < kSetupRepeats && report.correct(); ++i) {
    const uint64_t t0 = NowNs();
    const pnw::Status s = w.Setup(nullptr);
    setups.push_back(Seconds(t0));
    if (!s.ok()) {
      report.Fail("setup: " + s.ToString());
    }
    w.Teardown();
  }

  const Timings t = WindowedTimings(phase);
  const pnw::core::StoreMetrics& win = w.counters().window;
  report.Add("setup_s", Median(setups), "s", setups.size());
  report.Add("throughput_ops_s", Median(t.ops_s), "ops/s", t.ops);
  report.Add("put_p50_us", Median(t.put_p50) / 1e3, "us", t.puts);
  report.Add("put_p99_us", Median(t.put_p99) / 1e3, "us", t.puts);
  report.Add("get_p50_us", Median(t.get_p50) / 1e3, "us", t.gets);
  report.Add("get_p99_us", Median(t.get_p99) / 1e3, "us", t.gets);
  report.Add("bits_per_512", win.BitUpdatesPer512(), "bits", win.puts);
  report.Add("lines_per_put", win.AvgLinesPerPut(), "lines", win.puts);
  report.Add("rss_mib", rss_mib, "MiB", 1);
  // Built with += (GCC 12 -Wrestrict false positive on "lit" + string&&).
  std::string note = "phase: ";
  note += std::to_string(phase.Ops());
  note += " ops in ";
  note += std::to_string(phase.seconds);
  note += " s, ";
  note += std::to_string(t.ops_s.size());
  note += " windows; set-ups (s):";
  for (const double v : setups) {
    note += ' ';
    note += std::to_string(v);
  }
  report.Note(note);
  note = "window ops/s:";
  for (const double v : t.ops_s) {
    note += ' ';
    note += std::to_string(static_cast<uint64_t>(v));
  }
  report.Note(note);
}

void RunTraced(Workload& w, const Args& args, Report& report) {
  const RunLimits limits{args.seconds, w.TracedOpsPerClient()};
  double setup_s = 0.0;
  double rss = 0.0;
  // The untraced twin: same inputs, same op cap, no spans.
  const PhaseResult plain =
      MeasureOnce(w, limits, nullptr, nullptr, report, &setup_s, &rss);

  Tracer setup_tracer(/*thread=*/100, 1024);
  Tracer replay_tracer(/*thread=*/101, 16 * kReplayCap + 65536);
  const PhaseResult traced = MeasureOnce(w, limits, &setup_tracer,
                                         &replay_tracer, report, &setup_s,
                                         &rss);

  std::vector<const Tracer*> tracers = {&setup_tracer, &replay_tracer};
  uint64_t dropped = setup_tracer.dropped() + replay_tracer.dropped();
  for (const ClientLog& log : traced.clients) {
    if (log.tracer != nullptr) {
      tracers.push_back(log.tracer.get());
      dropped += log.tracer->dropped();
    }
  }
  const std::vector<SpanSummary> spans = Summarize(tracers);
  EmitLayerMetrics(w.counters(), spans, report);

  const double plain_ops_s = OpsPerSecond(plain);
  const double traced_ops_s = OpsPerSecond(traced);
  report.Add("trace.untraced_ops_s", plain_ops_s, "ops/s", plain.Ops());
  report.Add("trace.traced_ops_s", traced_ops_s, "ops/s", traced.Ops());
  report.Add("trace.overhead_share",
             plain_ops_s > 0.0 ? 1.0 - traced_ops_s / plain_ops_s : 0.0,
             "ratio", traced.Ops());

  char line[200];
  std::snprintf(line, sizeof(line), "%-30s %9s %12s %12s %12s %12s",
                "span (self = minus children)", "count", "total_ms",
                "self_ms", "p50_ns", "p99_ns");
  report.Note(line);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanSummary& s = spans[i];
    if (s.count == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%-30s %9llu %12.3f %12.3f %12.0f %12.0f",
                  SpanNameString(static_cast<SpanName>(i)),
                  static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.self_ns) / 1e6, s.PercentileNs(0.5),
                  s.PercentileNs(0.99));
    report.Note(line);
  }
  const std::string path = args.work_dir + "/spans.tsv";
  if (!WriteSpansTsv(path, tracers)) {
    report.Fail("cannot write " + path);
  }
  report.Note("spans written to " + path + " (" + std::to_string(dropped) +
              " dropped past capacity)");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage("bad arguments");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    return perfbench::Usage("cannot create --work-dir");
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args);
  if (workload == nullptr) {
    return perfbench::Usage("unknown workload");
  }

  perfbench::Report report;
  workload->Generate();
  if (args.trace) {
    perfbench::RunTraced(*workload, args, report);
  } else {
    perfbench::RunUntraced(*workload, args, report);
  }
  report.Print(args.workload, args.trace);
  return report.correct() ? 0 : 1;
}
