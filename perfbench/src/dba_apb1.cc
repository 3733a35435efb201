// dba_apb1: the paper's interactive loop on the shipped APB-1 files. One
// session, a cold Advise, then rounds of WhatIf calls on the same session.
// A round visits every phase-2 candidate once with one single-knob delta;
// the knob and its value rotate with the candidate and the round, so every
// seed issues the same deltas and a round costs the same whatever the seed.
// The seed orders the visits and picks the repeats: each delta is followed
// by a repeat of a ranked candidate's last request (a memo hit), every
// second delta by one more. Each round also makes two first contacts with
// the screened-only candidates just outside the leading I/O-work share
// (memo misses, taken in screening order because their cost ranges from 0.3
// to 1.2 s). The number of rounds follows from --seconds alone (one per
// kNominalRoundSeconds), never from the clock, so every run times the same
// calls however fast the machine is.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "bench.h"
#include "layers.h"
#include "bitmap/scheme.h"
#include "common/rng.h"
#include "cost/mix_cost.h"
#include "cost/prefetch.h"
#include "cost/query_cost.h"
#include "fragment/candidates.h"
#include "fragment/fragment_sizes.h"
#include "sim/disk_sim.h"
#include "warlock/session.h"
#include "workload/query.h"

namespace perfbench {
namespace {

using warlock::Session;
using warlock::core::Advisor;
using warlock::core::EvaluatedCandidate;

// Largest relative gap allowed between the analytic response time of a
// sampled query and its deterministic-positioning simulation (both sum the
// same service times; the model-vs-simulator experiment measured 0.4%).
constexpr double kSimTolerance = 0.02;
// Set-up samples, each the mean of kSetupBatch session builds (one build
// takes ~0.3 ms, too short to time alone on a shared machine). The run takes
// kSetupsPerPoint samples before each cold advise and after each what-if
// round, so the median covers the whole run, not one slow second of it.
constexpr int kSetupsPerPoint = 5;
constexpr int kSetupBatch = 50;
constexpr int kColdAdvises = 5;
// About how long one what-if round takes on APB-1 (8-13 s on 4 vCPUs).
constexpr double kNominalRoundSeconds = 10.0;
constexpr int kFirstContactsPerRound = 2;
constexpr int kKnobKinds = 5;

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Every field of an evaluation except the screening estimate (which only
// Advise fills in): equal fingerprints mean byte-identical answers.
std::string Fingerprint(const EvaluatedCandidate& c) {
  std::ostringstream out;
  for (const auto& a : c.fragmentation.attrs()) out << a.dim << "." << a.level << ",";
  out << "|" << c.excluded << c.exclusion_reason << "|" << c.num_fragments
      << "|" << c.total_pages << "|" << Hex(c.avg_fragment_pages) << "|"
      << Hex(c.size_skew_factor) << "|" << Hex(c.bitmap_storage_bytes) << "|"
      << static_cast<int>(c.allocation_scheme) << c.allocation_method << "|"
      << Hex(c.allocation_balance) << "|";
  for (uint64_t b : c.disk_bytes) out << b << ",";
  out << "|" << c.fact_granule << "|" << c.bitmap_granule << "|"
      << c.fully_evaluated << "|" << Hex(c.cost.io_work_ms) << "|"
      << Hex(c.cost.response_ms) << "|" << Hex(c.cost.total_ios) << "|"
      << Hex(c.cost.total_pages);
  for (const auto& q : c.cost.per_class) {
    out << "|" << Hex(q.fragments_hit) << Hex(q.fact_pages)
        << Hex(q.bitmap_pages) << Hex(q.fact_ios) << Hex(q.bitmap_ios)
        << Hex(q.io_work_ms) << Hex(q.response_ms) << Hex(q.disks_used);
  }
  return out.str();
}

std::string OverridesKey(const Advisor::Overrides& o) {
  std::ostringstream out;
  out << "d" << (o.num_disks ? static_cast<int64_t>(*o.num_disks) : -1)
      << "f" << (o.fact_granule ? static_cast<int64_t>(*o.fact_granule) : -1)
      << "b" << (o.bitmap_granule ? static_cast<int64_t>(*o.bitmap_granule) : -1)
      << "s" << (o.allocation_scheme ? static_cast<int>(*o.allocation_scheme) : -1)
      << "a" << o.allocator.value_or("-") << "x";
  for (const auto& r : o.excluded_bitmaps) out << r.dimension << "." << r.level << ",";
  return out.str();
}

struct Inputs {
  std::string schema, workload, config;
};

Inputs InputPaths(const Options& options) {
  if (options.tiny) {
    return {"tests/testdata/apb1_tiny.schema",
            "tests/testdata/apb1_tiny.workload",
            "tests/testdata/apb1_tiny.config"};
  }
  return {"examples/data/apb1.schema", "examples/data/apb1.workload",
          "examples/data/default.config"};
}

Session BuildOrDie(const Inputs& in) {
  auto session = Session::FromFiles(in.schema, in.workload, in.config);
  if (!session.ok()) {
    std::fprintf(stderr, "perfbench: session build failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(session).value();
}

uint64_t ExpectedCandidateCount(const warlock::schema::StarSchema& schema) {
  uint64_t n = 1;
  for (const auto& dim : schema.dimensions()) n *= 1 + dim.num_levels();
  return n;
}

// Properties every advise result must have, checked from the schema and the
// layers' public functions rather than from a stored copy of the output.
void CheckAdvice(const Session& s, const warlock::core::AdvisorResult& r,
                 bool full_apb1, Report& report) {
  const auto& schema = s.schema();
  const auto& config = s.config();
  const uint64_t space = ExpectedCandidateCount(schema);
  report.Check(r.enumerated == space, "enumerated == product of (1 + levels)");
  report.Check(r.enumerated == warlock::fragment::CandidateSpaceSize(schema),
               "enumerated == CandidateSpaceSize");
  if (full_apb1) report.Check(r.enumerated == 168, "APB-1 has 7*3*4*2 = 168 candidates");
  report.Check(r.fully_evaluated + r.excluded + r.screened == r.enumerated,
               "fully_evaluated + excluded + screened == enumerated");
  report.Check(!r.ranking.empty(), "ranking is not empty");

  // The leading I/O-work share: every fully evaluated candidate screened at
  // no more I/O work than any candidate left screened-only.
  double max_full = 0.0, min_screened = INFINITY;
  size_t full_count = 0;
  for (const auto& c : r.candidates) {
    if (c.fully_evaluated && !c.excluded) {
      ++full_count;
      max_full = std::max(max_full, c.screening_io_work_ms);
    } else if (!c.excluded) {
      min_screened = std::min(min_screened, c.screening_io_work_ms);
    }
  }
  report.Check(full_count == r.fully_evaluated, "fully evaluated count");
  report.Check(max_full <= min_screened,
               "phase 2 drew the leading I/O-work share");

  const double page = config.cost.disks.page_size_bytes;
  for (size_t k = 0; k < r.ranking.size(); ++k) {
    const EvaluatedCandidate& c = r.candidates[r.ranking[k]];
    const std::string label = c.fragmentation.Label(schema);
    report.Check(c.fully_evaluated && !c.excluded, label + ": ranked and fully evaluated");
    if (k > 0) {
      report.Check(r.candidates[r.ranking[k - 1]].cost.response_ms <=
                       c.cost.response_ms,
                   label + ": ranking non-decreasing in response time");
    }
    uint64_t fragments = 1;
    for (const auto& a : c.fragmentation.attrs()) {
      fragments *= schema.dimension(a.dim).cardinality(a.level);
    }
    report.Check(c.num_fragments == fragments,
                 label + ": fragments == product of level cardinalities");

    uint64_t total = 0, largest = 0;
    for (uint64_t b : c.disk_bytes) {
      total += b;
      largest = std::max(largest, b);
      report.Check(b <= config.cost.disks.disk_capacity_bytes,
                   label + ": disk within capacity");
    }
    // Fact pieces are whole pages; each fragment's bitmap piece is its
    // stored bitmap bytes rounded up to whole pages.
    const double bitmap_bytes =
        static_cast<double>(total) - static_cast<double>(c.total_pages) * page;
    report.Check(bitmap_bytes >= c.bitmap_storage_bytes - 1.0 &&
                     bitmap_bytes <= c.bitmap_storage_bytes +
                                         static_cast<double>(c.num_fragments) * page,
                 label + ": per-disk bytes sum to fact + bitmap bytes");
    const double avg = static_cast<double>(total) /
                       static_cast<double>(c.disk_bytes.size());
    report.Check(std::fabs(c.allocation_balance - largest / avg) <=
                     1e-9 * c.allocation_balance,
                 label + ": balance == max/avg");

    auto sizes = warlock::fragment::FragmentSizes::Compute(
        c.fragmentation, schema, config.fact_index,
        config.cost.disks.page_size_bytes, config.thresholds.max_fragments);
    if (!sizes.ok()) {
      report.Check(false, label + ": sizes recompute");
      continue;
    }
    const auto scheme =
        warlock::bitmap::BitmapScheme::Select(schema, config.bitmap_options);
    const auto fact_grid = warlock::cost::GranuleCandidates(std::min<uint64_t>(
        config.prefetch_max_granule, std::max<uint64_t>(1, sizes->MaxPages())));
    const auto bitmap_grid = warlock::cost::GranuleCandidates(std::min<uint64_t>(
        config.prefetch_max_granule,
        warlock::cost::LargestBitmapPages(*sizes, scheme)));
    report.Check(std::count(fact_grid.begin(), fact_grid.end(), c.fact_granule) == 1,
                 label + ": fact granule on the search grid");
    report.Check(std::count(bitmap_grid.begin(), bitmap_grid.end(),
                            c.bitmap_granule) == 1,
                 label + ": bitmap granule on the search grid");
  }
}

// The winner's model against the disk simulator: a deterministic-positioning
// batch of one sampled query must take what the model predicts for it.
void CheckWinnerAgainstSimulator(const Session& s, const EvaluatedCandidate& w,
                                 uint64_t seed, Report& report) {
  auto parts = BuildParts(s, w.fragmentation, s.config().allocator, false);
  if (!parts) {
    report.Check(false, "winner parts rebuild");
    return;
  }
  report.Check(parts->allocation->disk_bytes() == w.disk_bytes,
               "rebuilt winner placement == advised placement");
  parts->params.fact_granule = w.fact_granule;
  parts->params.bitmap_granule = w.bitmap_granule;
  const warlock::cost::QueryCostModel model(
      s.schema(), s.config().fact_index, w.fragmentation, parts->sizes,
      parts->scheme, *parts->allocation, parts->params);
  const auto mix_cost = warlock::cost::CostMix(model, s.mix(), parts->params.seed);
  report.Check(mix_cost.response_ms == w.cost.response_ms,
               "winner response re-derived from the public cost model");
  warlock::sim::SimConfig det;
  det.disks = parts->params.disks;
  det.randomize_positioning = false;
  double worst = 0.0;
  for (size_t ci = 0; ci < s.mix().size(); ++ci) {
    warlock::Rng rng(DeriveSeed(seed, 1000 + ci));
    for (int q = 0; q < 3; ++q) {
      const auto cq = warlock::workload::Instantiate(
          s.mix().query_class(ci), s.schema(), rng,
          parts->params.value_distribution);
      const double predicted = model.CostConcrete(cq).response_ms;
      const auto sim = warlock::sim::SimulateBatch(det, {{0.0, model.PlanIos(cq)}});
      const double err = std::fabs(sim.response_ms[0] - predicted) /
                         std::max(predicted, 1e-9);
      worst = std::max(worst, err);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "winner model vs simulator: worst deviation %.3f%% (tolerance %.1f%%)",
                worst * 100, kSimTolerance * 100);
  report.Note(buf);
  report.Check(worst <= kSimTolerance, buf);
}

struct Call {
  size_t candidate;
  Advisor::Overrides overrides;
};

}  // namespace

void RunDbaApb1(const Options& options, Report& report) {
  const Inputs in = InputPaths(options);
  for (const std::string& p : {in.schema, in.workload, in.config}) ReadFileOrDie(p);

  // Set-up: building the session from the three files.
  std::vector<double> setups;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      double batch_s = 0.0;
      for (int b = 0; b < kSetupBatch; ++b) {
        const double t = Now();
        const Session s = [&] {
          Tracer::Span span("api.session_build");
          return BuildOrDie(in);
        }();
        batch_s += Now() - t;
      }  // tearing the session down is not set-up
      setups.push_back(batch_s / kSetupBatch);
    }
  };

  // The cold Advise, on fresh sessions: its wall time varies by up to a
  // third between identical runs (how the pool happens to balance the
  // heavy candidates), so the run reports the median of several. The last
  // session goes on to the what-if rounds.
  std::vector<double> advise_times;
  double cpu_per_wall = 0.0;
  std::optional<Session> built;
  std::optional<warlock::Result<warlock::AdviseResponse>> advice;
  for (int a = 0; a < kColdAdvises; ++a) {
    sample_setup();
    built.reset();
    built.emplace(BuildOrDie(in));
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    advice.emplace([&] {
      Tracer::Span span("api.advise");
      return built->Advise();
    }());
    advise_times.push_back(Now() - t0);
    cpu_per_wall = (ProcessCpuSeconds() - cpu0) / advise_times.back();
    report.Operation(advice->ok());
    if (!advice->ok()) {
      report.Check(false, "cold advise: " + advice->status().ToString());
      return;
    }
  }
  const Session& session = *built;
  const auto& schema = session.schema();
  const auto advise_snapshot = session.metrics().Snapshot();
  const warlock::core::AdvisorResult& result = (*advice)->result;

  std::vector<size_t> phase2, screened;
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    const auto& c = result.candidates[i];
    if (c.excluded) continue;
    (c.fully_evaluated ? phase2 : screened).push_back(i);
  }
  std::vector<warlock::bitmap::BitmapRef> indexed;
  {
    const auto scheme = warlock::bitmap::BitmapScheme::Select(
        schema, session.config().bitmap_options);
    for (uint32_t d = 0; d < schema.num_dimensions(); ++d) {
      for (uint32_t l = 0; l < schema.dimension(d).num_levels(); ++l) {
        if (scheme.kind(d, l) != warlock::bitmap::BitmapKind::kNone) {
          indexed.push_back({d, l});
        }
      }
    }
  }
  const auto granules =
      warlock::cost::GranuleCandidates(session.config().prefetch_max_granule);
  const uint32_t base_disks = session.config().cost.disks.num_disks;

  // Seeded what-if rounds.
  std::map<size_t, Advisor::Overrides> last;  // candidate -> last request
  for (size_t i : phase2) last[i] = {};
  std::vector<size_t> first_contacts = screened;
  std::stable_sort(first_contacts.begin(), first_contacts.end(),
                   [&](size_t a, size_t b) {
                     return result.candidates[a].screening_io_work_ms <
                            result.candidates[b].screening_io_work_ms;
                   });
  size_t next_first_contact = 0;
  std::map<std::string, std::string> answers;  // request key -> fingerprint
  std::vector<Call> distinct;                  // first call of each key
  std::vector<double> latencies_ms;
  bool answers_consistent = true;
  uint64_t request_id = 0;

  auto issue = [&](const Call& call) {
    warlock::WhatIfRequest req;
    req.fragmentation = result.candidates[call.candidate].fragmentation;
    req.overrides = call.overrides;
    const double t = Now();
    auto response = [&] {
      Tracer::Span span("api.whatif", ++request_id);
      return session.WhatIf(req);
    }();
    latencies_ms.push_back((Now() - t) * 1e3);
    report.Operation(response.ok());
    if (!response.ok()) {
      report.Check(false, "whatif: " + response.status().ToString());
      return;
    }
    const std::string key =
        std::to_string(call.candidate) + "/" + OverridesKey(call.overrides);
    const std::string print = Fingerprint(response->candidate);
    auto [it, inserted] = answers.emplace(key, print);
    if (inserted) {
      distinct.push_back(call);
    } else if (it->second != print) {
      answers_consistent = false;
    }
  };

  const uint32_t planned_rounds = static_cast<uint32_t>(
      std::max(1.0, std::round(options.seconds / kNominalRoundSeconds)));
  double whatif_s = 0.0;
  uint32_t rounds = 0;
  do {
    const double round_start = Now();
    warlock::Rng rng(DeriveSeed(options.seed, 100 + rounds));
    std::vector<size_t> perm(phase2.size());
    for (size_t j = 0; j < perm.size(); ++j) perm[j] = j;
    for (size_t j = perm.size(); j > 1; --j) {
      std::swap(perm[j - 1], perm[rng.Uniform(j)]);
    }
    const size_t contact_every =
        std::max<size_t>(1, perm.size() / kFirstContactsPerRound);
    for (size_t j = 0; j < perm.size(); ++j) {
      const size_t cand = phase2[perm[j]];
      const EvaluatedCandidate& base = result.candidates[cand];
      Advisor::Overrides o;
      // The knob and its value depend on the candidate and the round only,
      // so every seed issues the same deltas (in its own order).
      const size_t turn = perm[j] + rounds;
      switch (turn % kKnobKinds) {
        case 0: {
          std::vector<uint32_t> disks;
          for (uint32_t d : {16u, 32u, 48u, 96u, 128u}) {
            if (d != base_disks) disks.push_back(d);
          }
          o.num_disks = disks[turn % disks.size()];
          break;
        }
        case 1: {
          const bool fact = turn % 2 == 0;
          const uint64_t current = fact ? base.fact_granule : base.bitmap_granule;
          uint64_t g = granules[turn % granules.size()];
          if (g == current) g = granules[(turn + 1) % granules.size()];
          (fact ? o.fact_granule : o.bitmap_granule) = g;
          break;
        }
        case 2:
          o.allocation_scheme =
              base.allocation_scheme == warlock::alloc::AllocationScheme::kGreedy
                  ? warlock::alloc::AllocationScheme::kRoundRobin
                  : warlock::alloc::AllocationScheme::kGreedy;
          break;
        case 3:
          o.allocator = "graph";
          break;
        default:
          o.excluded_bitmaps = {indexed[turn % indexed.size()]};
          break;
      }
      issue({cand, o});
      last[cand] = o;
      // Repeats of ranked candidates' last requests: result-memo hits.
      for (size_t r = 0; r < 1 + j % 2; ++r) {
        const size_t ranked =
            result.ranking[rng.Uniform(result.ranking.size())];
        issue({ranked, last[ranked]});
      }
      if (j % contact_every == 0 && j / contact_every < kFirstContactsPerRound &&
          next_first_contact < first_contacts.size()) {
        issue({first_contacts[next_first_contact++], {}});
      }
    }
    whatif_s += Now() - round_start;
    ++rounds;
    sample_setup();
  } while (rounds < planned_rounds);
  const double peak_rss = PeakRssMb();
  const auto stats = session.stats();

  // --- Checks (not timed) ---------------------------------------------------
  CheckAdvice(session, result, !options.tiny, report);
  CheckWinnerAgainstSimulator(session, *(*advice)->best(), options.seed, report);
  report.Check(answers_consistent, "repeated what-ifs answer identically");
  // Fresh sessions, one per distinct request, checked on all cores.
  std::vector<std::string> fresh_prints(distinct.size());
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < HardwareThreads(); ++w) {
      workers.emplace_back([&] {
        warlock::SessionOptions one_thread;
        one_thread.threads = 1;
        for (size_t k; (k = next.fetch_add(1)) < distinct.size();) {
          auto fresh = Session::FromFiles(in.schema, in.workload, in.config,
                                          one_thread);
          if (!fresh.ok()) continue;
          warlock::WhatIfRequest req;
          req.fragmentation =
              result.candidates[distinct[k].candidate].fragmentation;
          req.overrides = distinct[k].overrides;
          auto cold = fresh->WhatIf(req);
          if (cold.ok()) fresh_prints[k] = Fingerprint(cold->candidate);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  for (size_t k = 0; k < distinct.size(); ++k) {
    const std::string key = std::to_string(distinct[k].candidate) + "/" +
                            OverridesKey(distinct[k].overrides);
    report.Check(!fresh_prints[k].empty() && fresh_prints[k] == answers[key],
                 "memoized what-if == fresh session: " +
                     result.candidates[distinct[k].candidate]
                         .fragmentation.Label(schema) +
                     " " + key);
  }

  // The tail is the mean latency of the slowest quarter of the what-ifs (32
  // of 128 at 20 s: the heavier deltas and the first contacts). One order
  // statistic such as the p75 moves with single calls; the mean over the
  // quarter varies less between runs.
  const double p75 = Percentile(latencies_ms, 0.75);
  const double tail = TailMean(latencies_ms, 0.75);
  char note[256];
  std::snprintf(note, sizeof note,
                "dba_apb1: setup %.4f s, cold advise median %.3f s (%zu enumerated, "
                "%zu phase-2), %zu what-ifs in %u round(s) over %.2f s, "
                "p50 %.3f ms, p75 %.3f ms, slowest-quarter mean %.3f ms (n=%zu), %zu distinct requests "
                "re-checked on fresh sessions",
                Median(setups), Median(advise_times), result.enumerated, phase2.size(),
                latencies_ms.size(), rounds, whatif_s, Median(latencies_ms),
                p75, tail, latencies_ms.size(),
                distinct.size());
  report.Note(note);

  report.EndToEnd("setup_s", Median(setups), "s");
  report.EndToEnd("advise_s", Median(advise_times), "s");
  report.EndToEnd("ops_per_s", latencies_ms.size() / whatif_s, "1/s");
  report.EndToEnd("op_p50_ms", Median(latencies_ms), "ms");
  report.EndToEnd("op_tail_ms", tail, "ms");
  report.EndToEnd("peak_rss_mb", peak_rss, "MB");

  if (!Tracer::enabled()) return;

  // --- Per-layer probes of the traced run -------------------------------------
  // Counters of the measured session.
  report.Layer("sizes_cache.hits", stats.fragment_sizes_reused, "count");
  report.Layer("sizes_cache.misses", stats.fragment_sizes_computed, "count");
  const std::pair<const char*, warlock::core::EvalMemoCounters> stages[] = {
      {"result", stats.memo.result},
      {"prefetch", stats.memo.prefetch},
      {"allocation", stats.memo.allocation},
      {"scheme", stats.memo.scheme}};
  double hits = 0, lookups = 0;
  for (const auto& [name, counters] : stages) {
    report.Layer(std::string("memo.") + name + ".hits", counters.hits, "count");
    report.Layer(std::string("memo.") + name + ".misses",
                 counters.misses + counters.invalidations, "count");
    hits += counters.hits;
    lookups += counters.hits + counters.misses + counters.invalidations;
  }
  report.Layer("memo.lookups", lookups, "count");
  report.Layer("memo.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  for (const auto& [name, h] : advise_snapshot.histograms) {
    if (name == "advisor.screen_us") report.Layer("advisor.screen_ms", h.sum_micros / 1e3, "ms");
    if (name == "advisor.full_eval_us") report.Layer("advisor.full_eval_ms", h.sum_micros / 1e3, "ms");
  }
  for (const auto& [name, v] : advise_snapshot.counters) {
    if (name == "pool.tasks_run") report.Layer("pool.tasks_run", v, "count");
  }
  report.Layer("pool.cpu_per_wall", cpu_per_wall, "ratio");

  // Single layers, called serially through their public functions.
  const auto& config = session.config();
  {
    Tracer::Span span("bitmap.select");
    (void)warlock::bitmap::BitmapScheme::Select(schema, config.bitmap_options);
  }
  auto enumerated = [&] {
    Tracer::Span span("fragment.enumerate");
    return warlock::fragment::EnumerateCandidates(
        schema, config.fact_index, config.cost.disks.page_size_bytes,
        config.thresholds);
  }();
  if (enumerated.ok()) {
    Tracer::Span span("fragment.sizes");
    for (const auto& c : *enumerated) {
      (void)warlock::fragment::FragmentSizes::Compute(
          c.fragmentation, schema, config.fact_index,
          config.cost.disks.page_size_bytes, config.thresholds.max_fragments);
    }
  }
  {
    const Session fresh = BuildOrDie(in);
    for (size_t i : phase2) {
      Tracer::Span span("core.full_eval");
      (void)fresh.advisor().FullyEvaluate(result.candidates[i].fragmentation);
    }
  }
  double evaluations = 0;
  for (size_t i : phase2) {
    const EvaluatedCandidate& c = result.candidates[i];
    (void)BuildParts(session, c.fragmentation, warlock::alloc::kGraphAllocator, true);
    auto parts = BuildParts(session, c.fragmentation, config.allocator, true);
    if (!parts) continue;
    warlock::cost::PrefetchOptions prefetch;
    prefetch.max_granule_pages = config.prefetch_max_granule;
    prefetch.search_samples = config.prefetch_samples;
    {
      Tracer::Span span("cost.prefetch");
      evaluations += warlock::cost::OptimizePrefetch(
                         schema, config.fact_index, c.fragmentation,
                         parts->sizes, parts->scheme, *parts->allocation,
                         session.mix(), parts->params, prefetch)
                         .evaluations;
    }
    // One evaluation at the chosen granules with the search's sampling: the
    // unit the search cost is counted in.
    parts->params.fact_granule = c.fact_granule;
    parts->params.bitmap_granule = c.bitmap_granule;
    parts->params.samples_per_class = config.prefetch_samples;
    Tracer::Span span("cost.costmix");
    const warlock::cost::QueryCostModel model(
        schema, config.fact_index, c.fragmentation, parts->sizes,
        parts->scheme, *parts->allocation, parts->params);
    (void)warlock::cost::CostMix(model, session.mix(), parts->params.seed);
  }
  {
    auto renderer = warlock::report::Renderer::Create(
        warlock::report::OutputFormat::kJson);
    Tracer::Span span("report.advise_json");
    (void)renderer->Ranking(result, schema);
  }

  const auto spans = Tracer::Aggregates();
  report.Layer("api.session_build_ms",
               SpanPercentileMs(spans, "api.session_build", 0.5), "ms");
  report.Layer("bitmap.select_ms", SpanTotalMs(spans, "bitmap.select"), "ms");
  report.Layer("fragment.enumerate_ms", SpanTotalMs(spans, "fragment.enumerate"), "ms");
  report.Layer("fragment.sizes_ms", SpanTotalMs(spans, "fragment.sizes"), "ms");
  report.Layer("core.full_eval_ms.p50", SpanPercentileMs(spans, "core.full_eval", 0.5), "ms");
  report.Layer("core.full_eval_ms.max", SpanMaxMs(spans, "core.full_eval"), "ms");
  report.Layer("core.full_eval_ms.sum", SpanTotalMs(spans, "core.full_eval"), "ms");
  const double prefetch_ms = SpanTotalMs(spans, "cost.prefetch");
  const double costmix_ms = SpanTotalMs(spans, "cost.costmix");
  report.Layer("cost.prefetch_ms.sum", prefetch_ms, "ms");
  report.Layer("cost.prefetch_evals", evaluations, "count");
  report.Layer("cost.costmix_ms.sum", costmix_ms, "ms");
  report.Layer("cost.prefetch_per_costmix",
               costmix_ms > 0 ? prefetch_ms / costmix_ms : 0.0, "ratio");
  report.Layer("alloc.warlock_ms", SpanTotalMs(spans, "alloc.warlock"), "ms");
  report.Layer("alloc.graph_ms", SpanTotalMs(spans, "alloc.graph"), "ms");
  report.Layer("report.advise_json_us", SpanTotalMs(spans, "report.advise_json") * 1e3, "us");
}

}  // namespace perfbench
