// The repository benchmark program:
//
//   warlock_perfbench --workload <dba_apb1|sweep_demo|service_mix>
//                     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Runs one workload from the checkout root, checks its outputs, and prints
// one JSON result line last: end-to-end metrics untraced, per-layer metrics
// traced (the traced run also writes its spans to .bench_out/).
#include <sys/stat.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: warlock_perfbench --workload "
               "<dba_apb1|sweep_demo|service_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");

  // Untraced runs measure the library as users run it (its own stage timers
  // on, the default); the traced run adds the benchmark's spans on top.
  if (options.trace) perfbench::Tracer::Enable();
  warlock::obs::SetEnabled(true);

  perfbench::Report report;
  const double start = perfbench::Now();
  if (options.workload == "dba_apb1") {
    perfbench::RunDbaApb1(options, report);
  } else if (options.workload == "sweep_demo") {
    perfbench::RunSweepDemo(options, report);
  } else if (options.workload == "service_mix") {
    perfbench::RunServiceMix(options, report);
  } else {
    Usage("unknown workload");
  }
  const double wall = perfbench::Now() - start;

  if (options.trace) {
    const size_t spans = perfbench::Tracer::SpanCount();
    const double span_cost_us = perfbench::Tracer::MeasureSpanCostUs();
    report.Layer("trace.spans", static_cast<double>(spans), "count");
    report.Layer("trace.overhead_share", spans * span_cost_us / 1e6 / wall,
                 "ratio");
    // Layers this workload never called did no work in it: they read 0.
    for (const auto& [name, unit] : perfbench::LayerMetricNames()) {
      if (report.layers().count(name) == 0) report.Layer(name, 0.0, unit);
    }
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (!perfbench::Tracer::Write(path, options, report)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 2;
    }
    report.Note("trace written to " + path);
  }
  report.Print(options.trace);
  return 0;
}
