// sweep_demo: scenario::RunSweep over examples/data/demo.sweep (16 generated
// warehouses of 2-4 dimensions on 8-32 disks), repeated in whole sweeps
// for the run's length. Many small advisor runs shift the weight from the
// prefetch search towards session build, enumeration and screening, and
// every row rescores its winner under both allocation backends. The number
// of sweeps follows from --seconds alone (one per kNominalSweepSeconds),
// never from the clock, so every run times the same sweeps.
//
// The scenario population is the spec's own (its `seed` line), not the
// benchmark seed: per-scenario cost is heavy-tailed (coefficient of
// variation 1.3-1.7 over 64 generated demo scenarios), so a population
// drawn per benchmark seed would move the sweep rate between seeds by
// more than any regression bound.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "bench.h"
#include "fragment/candidates.h"
#include "fragment/fragment_sizes.h"
#include "layers.h"
#include "obs/metrics.h"
#include "scenario/generator.h"
#include "scenario/scenario_text.h"
#include "scenario/sweep.h"
#include "warlock/session.h"

namespace perfbench {
namespace {

// Set-up samples, each the mean of kSetupBatch spec parses + expansions
// (one takes ~0.1 ms, too short to time alone on a shared machine). The run
// takes kSetupsPerPoint samples before each sweep, so the median covers the
// whole run, not one slow second of it.
constexpr int kSetupsPerPoint = 5;
constexpr int kSetupBatch = 100;
// About how long one demo sweep takes (4-5 s on 4 vCPUs).
constexpr double kNominalSweepSeconds = 4.0;

using warlock::scenario::ScenarioOutcome;
using warlock::scenario::ScenarioSpec;

void CheckRows(const ScenarioSpec& spec,
               const std::vector<warlock::scenario::Scenario>& expanded,
               const warlock::scenario::SweepResult& result, Report& report) {
  report.Check(result.outcomes.size() == spec.scenarios, "one row per scenario");
  for (const ScenarioOutcome& o : result.outcomes) {
    const std::string row = "row " + std::to_string(o.index);
    report.Check(o.ok && !o.cancelled, row + ": ok");
    if (o.index >= expanded.size()) {
      report.Check(false, row + ": index in range");
      continue;
    }
    const auto& sc = expanded[o.index];
    report.Check(o.seed == warlock::scenario::ScenarioSeed(spec.seed, o.index),
                 row + ": seed");
    report.Check(o.dimensions == sc.schema.num_dimensions() &&
                     o.fact_rows == sc.schema.fact().row_count() &&
                     o.query_classes == sc.mix.size() &&
                     o.disks == sc.config.cost.disks.num_disks &&
                     o.skewed == sc.schema.HasSkew(),
                 row + ": shape columns match GenerateScenario");
    uint64_t space = 1;
    for (const auto& dim : sc.schema.dimensions()) space *= 1 + dim.num_levels();
    report.Check(o.enumerated == space &&
                     o.enumerated == warlock::fragment::CandidateSpaceSize(sc.schema),
                 row + ": enumerated == candidate space of the generated schema");
    report.Check(o.fully_evaluated + o.excluded + o.screened == o.enumerated,
                 row + ": fully_evaluated + excluded + screened == enumerated");
    report.Check(o.warlock_response_ms == o.response_ms,
                 row + ": warlock score == winner response");
    const bool graph_better = o.graph_response_ms < o.warlock_response_ms;
    const bool warlock_better = o.warlock_response_ms < o.graph_response_ms;
    report.Check((graph_better && o.allocator_winner == "graph") ||
                     (warlock_better && o.allocator_winner == "warlock") ||
                     (!graph_better && !warlock_better),
                 row + ": allocator_winner is the argmin of the backend scores");
  }
}

}  // namespace

void RunSweepDemo(const Options& options, Report& report) {
  const std::string path =
      options.tiny ? "examples/data/smoke.sweep" : "examples/data/demo.sweep";
  const std::string text = ReadFileOrDie(path);

  // Set-up: spec parse + ExpandSpec.
  std::vector<double> setups;
  std::optional<ScenarioSpec> spec;
  std::vector<warlock::scenario::Scenario> expanded;
  auto sample_setup = [&]() -> bool {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      double batch_s = 0.0;
      for (int b = 0; b < kSetupBatch; ++b) {
        Tracer::Span span("sweep.setup");
        const double t = Now();
        auto parsed = warlock::scenario::SpecFromText(text);
        if (!parsed.ok()) {
          std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(),
                       parsed.status().ToString().c_str());
          std::exit(2);
        }
        auto scenarios = warlock::scenario::ExpandSpec(*parsed);
        batch_s += Now() - t;
        if (!scenarios.ok()) {
          report.Check(false, "ExpandSpec: " + scenarios.status().ToString());
          return false;
        }
        spec = std::move(parsed).value();
        expanded = std::move(scenarios).value();
      }
      setups.push_back(batch_s / kSetupBatch);
    }
    return true;
  };
  if (!sample_setup()) return;

  warlock::scenario::SweepOptions sweep_options;
  sweep_options.threads = HardwareThreads();
  warlock::obs::MetricRegistry sweep_metrics;  // sweep.scenario_us per row
  sweep_options.metrics = &sweep_metrics;
  std::vector<double> sweep_ms;
  std::string first_json;
  bool deterministic = true;
  uint64_t scenarios_done = 0;
  const size_t planned_sweeps = static_cast<size_t>(
      std::max(2.0, std::round(options.seconds / kNominalSweepSeconds)));
  double wall = 0.0, cpu = 0.0;  // of the sweeps alone
  double peak_rss = 0.0;
  do {
    const double cpu0 = ProcessCpuSeconds();
    const double t = Now();
    auto result = [&] {
      Tracer::Span span("scenario.sweep", sweep_ms.size() + 1);
      return warlock::scenario::RunSweep(*spec, sweep_options);
    }();
    sweep_ms.push_back((Now() - t) * 1e3);
    wall += sweep_ms.back() / 1e3;
    cpu += ProcessCpuSeconds() - cpu0;
    // What one warlock_sweep over the spec peaks at. Later sweeps only add
    // chances of an unlucky overlap of heavy scenarios on the outer threads,
    // which moved the run's peak by a fifth between runs.
    if (sweep_ms.size() == 1) peak_rss = PeakRssMb();
    if (!result.ok()) {
      report.Operation(false);
      report.Check(false, "RunSweep: " + result.status().ToString());
      continue;
    }
    for (const ScenarioOutcome& o : result->outcomes) {
      report.Operation(o.ok && !o.cancelled);
      scenarios_done += o.ok ? 1 : 0;
    }
    const std::string json = warlock::scenario::SweepToJson(*result);
    if (first_json.empty()) {
      first_json = json;
      CheckRows(*spec, expanded, *result, report);
    } else {
      deterministic = deterministic && json == first_json;
    }
    if (!sample_setup()) return;
  } while (sweep_ms.size() < planned_sweeps);
  const double cpu_per_wall = cpu / wall;
  report.Check(deterministic, "every sweep of the run renders identically");

  char note[256];
  std::snprintf(note, sizeof note,
                "sweep_demo: setup %.4f s, %zu sweep(s) of %u scenarios in "
                "%.2f s (%u outer threads), median sweep %.3f s, slowest %.3f s",
                Median(setups), sweep_ms.size(), spec->scenarios, wall,
                sweep_options.threads, Median(sweep_ms) / 1e3,
                *std::max_element(sweep_ms.begin(), sweep_ms.end()) / 1e3);
  report.Note(note);
  report.EndToEnd("setup_s", Median(setups), "s");
  // A scenario's advise inside the sweep (session build, Advise, both
  // rescoring what-ifs): the exact mean of the sweep's own per-row timer.
  double scenario_s = 0.0;
  for (const auto& [name, h] : sweep_metrics.Snapshot().histograms) {
    if (name == "sweep.scenario_us" && h.count > 0) {
      scenario_s = h.sum_micros / 1e6 / h.count;
    }
  }
  report.EndToEnd("advise_s", scenario_s, "s");
  report.EndToEnd("ops_per_s", scenarios_done / wall, "1/s");
  // Fewer than forty sweeps per run: the slowest one is the tail.
  report.EndToEnd("op_p50_ms", Median(sweep_ms), "ms");
  report.EndToEnd("op_tail_ms", *std::max_element(sweep_ms.begin(), sweep_ms.end()),
                  "ms");
  report.EndToEnd("peak_rss_mb", peak_rss, "MB");

  if (!Tracer::enabled()) return;

  // --- Per-layer probes of the traced run: the steps of one sweep row,
  // called one at a time through their public functions. ---------------------
  report.Layer("pool.cpu_per_wall", cpu_per_wall, "ratio");
  double sizes_hits = 0, sizes_misses = 0;
  double memo_hits = 0, memo_lookups = 0;
  std::vector<std::pair<std::string, double>> memo_counts;
  warlock::SessionOptions one_thread;
  one_thread.threads = 1;
  for (uint32_t i = 0; i < spec->scenarios; ++i) {
    {
      Tracer::Span span("scenario.generate");
      (void)warlock::scenario::GenerateScenario(*spec, i);
    }
    auto session = [&] {
      Tracer::Span span("api.session_build");
      return warlock::Session::FromScenario(*spec, i, one_thread);
    }();
    if (!session.ok()) continue;
    const auto& config = session->config();
    auto candidates = [&] {
      Tracer::Span span("fragment.enumerate");
      return warlock::fragment::EnumerateCandidates(
          session->schema(), config.fact_index,
          config.cost.disks.page_size_bytes, config.thresholds);
    }();
    if (candidates.ok()) {
      Tracer::Span span("fragment.sizes");
      for (const auto& c : *candidates) {
        (void)warlock::fragment::FragmentSizes::Compute(
            c.fragmentation, session->schema(), config.fact_index,
            config.cost.disks.page_size_bytes, config.thresholds.max_fragments);
      }
    }
    auto advice = [&] {
      Tracer::Span span("scenario.advise");
      return session->Advise();
    }();
    if (!advice.ok() || advice->best() == nullptr) continue;
    {
      Tracer::Span span("scenario.rescore");
      for (const char* backend :
           {warlock::alloc::kWarlockAllocator, warlock::alloc::kGraphAllocator}) {
        warlock::WhatIfRequest what_if;
        what_if.fragmentation = advice->best()->fragmentation;
        what_if.overrides.allocator = backend;
        (void)session->WhatIf(what_if);
      }
    }
    for (const auto& c : advice->result.candidates) {
      if (!c.fully_evaluated || c.excluded) continue;
      for (const char* backend :
           {warlock::alloc::kWarlockAllocator, warlock::alloc::kGraphAllocator}) {
        (void)BuildParts(*session, c.fragmentation, backend, true);
      }
    }
    const auto stats = session->stats();
    sizes_hits += stats.fragment_sizes_reused;
    sizes_misses += stats.fragment_sizes_computed;
    const std::pair<const char*, warlock::core::EvalMemoCounters> stages[] = {
        {"result", stats.memo.result},
        {"prefetch", stats.memo.prefetch},
        {"allocation", stats.memo.allocation},
        {"scheme", stats.memo.scheme}};
    for (const auto& [name, c] : stages) {
      memo_counts.push_back({std::string("memo.") + name + ".hits", c.hits});
      memo_counts.push_back({std::string("memo.") + name + ".misses",
                             c.misses + c.invalidations});
      memo_hits += c.hits;
      memo_lookups += c.hits + c.misses + c.invalidations;
    }
  }
  {
    auto result = warlock::scenario::RunSweep(*spec, sweep_options);
    auto renderer = warlock::report::Renderer::Create(
        warlock::report::OutputFormat::kJson);
    Tracer::Span span("report.sweep_render");
    if (result.ok()) (void)renderer->Sweep(*result);
  }

  std::map<std::string, double> memo_sums;
  for (const auto& [name, v] : memo_counts) memo_sums[name] += v;
  for (const auto& [name, v] : memo_sums) report.Layer(name, v, "count");
  report.Layer("memo.lookups", memo_lookups, "count");
  report.Layer("memo.hit_ratio", memo_lookups > 0 ? memo_hits / memo_lookups : 0.0,
               "ratio");
  report.Layer("sizes_cache.hits", sizes_hits, "count");
  report.Layer("sizes_cache.misses", sizes_misses, "count");

  const auto spans = Tracer::Aggregates();
  report.Layer("api.session_build_ms",
               SpanPercentileMs(spans, "api.session_build", 0.5), "ms");
  report.Layer("fragment.enumerate_ms", SpanTotalMs(spans, "fragment.enumerate"), "ms");
  report.Layer("fragment.sizes_ms", SpanTotalMs(spans, "fragment.sizes"), "ms");
  report.Layer("alloc.warlock_ms", SpanTotalMs(spans, "alloc.warlock"), "ms");
  report.Layer("alloc.graph_ms", SpanTotalMs(spans, "alloc.graph"), "ms");
  report.Layer("scenario.generate_us", SpanTotalMs(spans, "scenario.generate") * 1e3, "us");
  report.Layer("scenario.advise_ms.p50", SpanPercentileMs(spans, "scenario.advise", 0.5), "ms");
  report.Layer("scenario.advise_ms.max", SpanMaxMs(spans, "scenario.advise"), "ms");
  report.Layer("scenario.rescore_ms", SpanTotalMs(spans, "scenario.rescore"), "ms");
  report.Layer("report.sweep_render_ms", SpanTotalMs(spans, "report.sweep_render"), "ms");
}

}  // namespace perfbench
