#include "bench.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "perfbench: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double TailMean(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))));
  double sum = 0.0;
  for (size_t i = rank; i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - rank);
}

double TailQuantile(size_t n, double max_q) {
  if (n >= 40) {
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
      if (q <= max_q && static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
    }
  }
  return 0.5;
}

// --- Report -----------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::Operation(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  if (failed_checks_ <= 20) std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value.first) +
           ", \"unit\": " + JsonString(value.second) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Print(bool trace) const {
  for (const std::string& note : notes_) std::cout << note << "\n";
  std::cout << "checks: " << checks_ << " run, " << failed_checks_
            << " failed\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << MetricsJson(trace ? layers_ : end_to_end_)
            << "}" << std::endl;
}

// --- Tracer -----------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  double start_us;
  double end_us;
};

std::atomic<bool> g_trace_enabled{false};
std::atomic<uint64_t> g_next_span{1};
const double g_epoch = Now();

// Each thread records into its own buffer (no lock per span); the buffers
// outlive their threads and are merged when the run reads them.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;
thread_local std::vector<SpanRecord>* t_buffer = nullptr;

std::vector<SpanRecord>& ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<SpanRecord>>();
    buffer->reserve(4096);
    t_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

// Every recorded span, in id order. Only called once the workload's
// threads have finished recording.
std::vector<SpanRecord> AllSpans() {
  std::vector<SpanRecord> spans;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return spans;
}

struct OpenSpan {
  uint64_t id;
  uint64_t request;
};
thread_local std::vector<OpenSpan> t_open;

double NowUs() { return (Now() - g_epoch) * 1e6; }

}  // namespace

void Tracer::Enable() { g_trace_enabled.store(true); }
bool Tracer::enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

Tracer::Span::Span(const char* name, uint64_t request) : name_(name) {
  if (!enabled()) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  if (!t_open.empty()) {
    parent_ = t_open.back().id;
    if (request == 0) request = t_open.back().request;
  }
  request_ = request;
  t_open.push_back({id_, request_});
  start_us_ = NowUs();
}

Tracer::Span::~Span() {
  if (id_ == 0) return;
  const double end = NowUs();
  t_open.pop_back();
  ThreadBuffer().push_back({name_, id_, parent_, request_, start_us_, end});
}

size_t Tracer::SpanCount() { return AllSpans().size(); }

std::map<std::string, Tracer::Aggregate> Tracer::Aggregates() {
  const std::vector<SpanRecord> spans = AllSpans();
  // Children of each span, to subtract the interval they cover.
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_us, s.end_us});
  }
  std::map<std::string, Aggregate> out;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double lo = s.start_us, hi = s.start_us;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    Aggregate& agg = out[s.name];
    const double dur_ms = (s.end_us - s.start_us) / 1e3;
    ++agg.count;
    agg.total_ms += dur_ms;
    agg.self_ms += dur_ms - covered / 1e3;
    agg.durations_ms.push_back(dur_ms);
  }
  return out;
}

double Tracer::MeasureSpanCostUs() {
  constexpr int kSpans = 20000;
  const double start = Now();
  for (int i = 0; i < kSpans; ++i) {
    Span span("trace.calibration");
  }
  const double per_span_us = (Now() - start) * 1e6 / kSpans;
  // The calibration spans (all on this thread) are not part of the
  // workload.
  auto& buffer = ThreadBuffer();
  buffer.erase(std::remove_if(buffer.begin(), buffer.end(),
                              [](const SpanRecord& s) {
                                return std::string_view(s.name) ==
                                       "trace.calibration";
                              }),
               buffer.end());
  return per_span_us;
}

bool Tracer::Write(const std::string& path, const Options& options,
                   const Report& report) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"tiny\": "
      << (options.tiny ? "true" : "false")
      << ",\n \"per_layer\": " << MetricsJson(report.layers())
      << ",\n \"end_to_end_traced\": " << MetricsJson(report.end_to_end())
      << ",\n \"spans_by_name\": {";
  bool first = true;
  for (const auto& [name, agg] : Aggregates()) {
    out << (first ? "\n  " : ",\n  ") << JsonString(name)
        << ": {\"count\": " << agg.count
        << ", \"total_ms\": " << JsonNumber(agg.total_ms)
        << ", \"self_ms\": " << JsonNumber(agg.self_ms) << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  first = true;
  for (const SpanRecord& s : AllSpans()) {
    out << (first ? "\n  " : ",\n  ") << "{\"name\": " << JsonString(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"start_us\": " << JsonNumber(s.start_us)
        << ", \"end_us\": " << JsonNumber(s.end_us) << "}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double SpanTotalMs(const std::map<std::string, Tracer::Aggregate>& spans,
                   const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_ms;
}

double SpanPercentileMs(const std::map<std::string, Tracer::Aggregate>& spans,
                        const std::string& name, double q) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : Percentile(it->second.durations_ms, q);
}

double SpanMaxMs(const std::map<std::string, Tracer::Aggregate>& spans,
                 const std::string& name) {
  return SpanPercentileMs(spans, name, 1.0);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"api.session_build_ms", "ms"},
      {"bitmap.select_ms", "ms"},
      {"fragment.enumerate_ms", "ms"},
      {"fragment.sizes_ms", "ms"},
      {"sizes_cache.hits", "count"},
      {"sizes_cache.misses", "count"},
      {"advisor.screen_ms", "ms"},
      {"advisor.full_eval_ms", "ms"},
      {"core.full_eval_ms.p50", "ms"},
      {"core.full_eval_ms.max", "ms"},
      {"core.full_eval_ms.sum", "ms"},
      {"memo.result.hits", "count"},
      {"memo.result.misses", "count"},
      {"memo.prefetch.hits", "count"},
      {"memo.prefetch.misses", "count"},
      {"memo.allocation.hits", "count"},
      {"memo.allocation.misses", "count"},
      {"memo.scheme.hits", "count"},
      {"memo.scheme.misses", "count"},
      {"memo.lookups", "count"},
      {"memo.hit_ratio", "ratio"},
      {"cost.prefetch_ms.sum", "ms"},
      {"cost.prefetch_evals", "count"},
      {"cost.costmix_ms.sum", "ms"},
      {"cost.prefetch_per_costmix", "ratio"},
      {"alloc.warlock_ms", "ms"},
      {"alloc.graph_ms", "ms"},
      {"pool.cpu_per_wall", "ratio"},
      {"pool.tasks_run", "count"},
      {"scenario.generate_us", "us"},
      {"scenario.advise_ms.p50", "ms"},
      {"scenario.advise_ms.max", "ms"},
      {"scenario.rescore_ms", "ms"},
      {"report.advise_json_us", "us"},
      {"report.sweep_render_ms", "ms"},
      {"service.request_bytes", "B"},
      {"service.response_bytes", "B"},
      {"service.parse_request_us", "us"},
      {"service.parse_response_us", "us"},
      {"service.key_us", "us"},
      {"service.rtt_us.advise", "us"},
      {"service.rtt_us.whatif", "us"},
      {"service.rpc_samples", "count"},
      {"session_cache.hits", "count"},
      {"session_cache.misses", "count"},
      {"session_cache.evictions", "count"},
      {"service.payload_hits", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_share", "ratio"},
  };
  return kNames;
}

}  // namespace perfbench
