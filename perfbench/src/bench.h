// Shared plumbing of the repository benchmark: options, the per-run report
// (metrics, attempted/failed counts, correctness checks), sample statistics,
// process measurements, and the span tracer of the traced run.
#ifndef WARLOCK_PERFBENCH_BENCH_H_
#define WARLOCK_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs (the self-check mode): same code paths and checks, seconds
  // instead of minutes.
  bool tiny = false;
};

// Steady-clock seconds.
double Now();
// CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();
// Hardware threads (at least 1).
uint32_t HardwareThreads();
// Reads a whole file; exits the process (code 2, no result line) when the
// file is missing, since then the benchmark cannot run at all.
std::string ReadFileOrDie(const std::string& path);

// SplitMix64 of (seed, salt): the derived seed of one seeded stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
// Mean of the values above the q-quantile (nearest rank): the slowest
// (1 - q) share of the samples.
double TailMean(std::vector<double> values, double q);
// The highest of p99.9/p99/p95/p90/p75, at most `max_q`, with at least ten
// of `n` samples beyond it; with fewer than forty samples the median (0.5),
// since there is no tail to speak of.
double TailQuantile(size_t n, double max_q = 0.999);

// One run's outcome: end-to-end metrics (untraced run), per-layer metrics
// (traced run), operation counts, and correctness checks.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  // Counts one attempted operation and whether it failed.
  void Operation(bool ok);
  // Records a correctness check; a failed one makes the run incorrect and
  // is printed to stderr.
  void Check(bool ok, const std::string& what);
  // Free-form context line for the human-readable part of the output.
  void Note(const std::string& line);

  bool correct() const { return failed_checks_ == 0; }
  // Prints notes, then the one-line JSON result (last line of stdout).
  void Print(bool trace) const;
  // The metrics of each kind, for the trace file.
  const std::map<std::string, std::pair<double, std::string>>& end_to_end()
      const {
    return end_to_end_;
  }
  const std::map<std::string, std::pair<double, std::string>>& layers() const {
    return layers_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> end_to_end_;
  std::map<std::string, std::pair<double, std::string>> layers_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  uint64_t failed_checks_ = 0;
};

// Span tracer of the traced run. A span records name, start, end, its
// parent (the innermost open span on the same thread) and a request id
// (inherited from the parent when not given). Spans stay in memory and are
// written out once, when the run ends. Disabled (untraced runs), a span
// reads no clock and records nothing.
class Tracer {
 public:
  static void Enable();
  static bool enabled();

  class Span {
   public:
    explicit Span(const char* name, uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const char* name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t request_ = 0;
    double start_us_ = 0.0;
  };

  // Per-name aggregate over every recorded span: count, summed duration,
  // summed self time (duration minus the part covered by child spans), and
  // every duration (for percentiles).
  struct Aggregate {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;
  };
  static std::map<std::string, Aggregate> Aggregates();
  static size_t SpanCount();
  // Cost of recording one span on this machine, measured by timing many
  // empty spans (microseconds).
  static double MeasureSpanCostUs();
  // Writes every span, the per-name aggregates, and `report`'s per-layer
  // metrics and end-to-end metrics as measured with tracing on (their gap
  // to an untraced run is the tracing overhead) as JSON. Returns false when the file cannot be written.
  static bool Write(const std::string& path, const Options& options,
                    const Report& report);
};

// Per-workload entry points (one file each).
void RunDbaApb1(const Options& options, Report& report);
void RunSweepDemo(const Options& options, Report& report);
void RunServiceMix(const Options& options, Report& report);

// Sum of span durations of `name` in milliseconds, and a percentile of its
// durations; 0 when no such span was recorded (the layer was not exercised
// by the workload).
double SpanTotalMs(const std::map<std::string, Tracer::Aggregate>& spans,
                   const std::string& name);
double SpanPercentileMs(const std::map<std::string, Tracer::Aggregate>& spans,
                        const std::string& name, double q);
double SpanMaxMs(const std::map<std::string, Tracer::Aggregate>& spans,
                 const std::string& name);

// Every per-layer metric name the traced run reports, with its unit, in
// the order of BENCHMARK.json. A workload fills the ones it exercises; the
// rest read 0 (that layer did no work in this workload).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

}  // namespace perfbench

#endif  // WARLOCK_PERFBENCH_BENCH_H_
