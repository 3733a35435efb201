// service_mix: an in-process warlockd (service::Server, default options,
// ephemeral port) driven by a closed loop of blocking service::Clients, one
// connection each, never more clients than server workers (a worker owns a
// connection for its lifetime) or hardware threads. Each client waits for
// its reply before sending the next request, as warlockd's callers do.
//
// The clients send a seeded mix of advise and whatif requests over more
// generated (schema, workload, config) triples than the server's session
// cache holds (16), with skewed popularity: a hot set that fits in the cache
// is served with no pipeline work; cold triples miss, evict and rebuild.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/config_text.h"
#include "scenario/generator.h"
#include "schema/schema_text.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_cache.h"
#include "warlock/session.h"
#include "workload/workload_text.h"

namespace perfbench {
namespace {

namespace svc = warlock::service;

constexpr int kSetups = 5;
// Requests go to the hot set with this probability, else to a cold triple.
constexpr double kHotShare = 0.9;
// Of the requests to one triple: advise, then the two what-ifs.
constexpr double kAdviseShare = 0.6;

// Small generated warehouses of one shape (3 dimensions of 2 levels with
// cardinalities 4 and 12, 200k rows, 4 query classes of 2 restrictions, 8
// disks), so a session-cache miss costs tens of milliseconds and about the
// same on every seed; the seed draws which attributes each class restricts,
// their values and the class weights.
warlock::scenario::ScenarioSpec TripleSpec(uint64_t seed, uint32_t triples) {
  warlock::scenario::ScenarioSpec spec;
  spec.name = "service";
  spec.seed = seed;
  spec.scenarios = triples;
  spec.dimensions = {3, 3};
  spec.levels = {2, 2};
  spec.top_cardinality = {4, 4};
  spec.fanout = {3, 3};
  spec.skew_probability = 0.0;
  spec.fact_rows = {200000, 200000};
  spec.row_bytes = {64, 64};
  spec.measures = {1, 1};
  spec.query_classes = {4, 4};
  spec.restrictions = {2, 2};
  spec.num_values = {1, 1};
  spec.disks = {8, 8};
  spec.samples_per_class = 2;
  spec.top_k = 3;
  return spec;
}

// One distinct request of the mix with the payload a direct Session call on
// the same triple renders for it.
struct Request {
  bool advise = true;
  std::string json;
  std::string expected_payload;
};

struct Triple {
  std::vector<Request> requests;  // [0] advise, then zero to two what-ifs
};

std::string RenderOrEmpty(const warlock::Result<std::string>& r) {
  return r.ok() ? *r : std::string();
}

}  // namespace

void RunServiceMix(const Options& options, Report& report) {
  const uint32_t hot = options.tiny ? 4 : 8;
  const uint32_t cold = options.tiny ? 16 : 96;
  const auto spec = TripleSpec(DeriveSeed(options.seed, 1), hot + cold);
  auto renderer =
      warlock::report::Renderer::Create(warlock::report::OutputFormat::kJson);

  // Inputs and expected replies, from direct Session calls (check prep).
  std::vector<Triple> triples(spec.scenarios);
  for (uint32_t i = 0; i < spec.scenarios; ++i) {
    auto sc = warlock::scenario::GenerateScenario(spec, i);
    if (!sc.ok()) {
      report.Check(false, "GenerateScenario: " + sc.status().ToString());
      return;
    }
    const std::string schema_text = warlock::schema::SchemaToText(sc->schema);
    const std::string workload_text =
        warlock::workload::QueryMixToText(sc->mix, sc->schema);
    const std::string config_text = warlock::core::ToolConfigToText(sc->config);
    auto session = [&] {
      Tracer::Span span("api.session_build");
      return warlock::Session::FromText(schema_text, workload_text, config_text);
    }();
    if (!session.ok()) {
      report.Check(false, "FromText: " + session.status().ToString());
      return;
    }
    auto advice = session->Advise();
    if (!advice.ok()) {
      report.Check(false, "direct advise: " + advice.status().ToString());
      return;
    }
    svc::AdviseCall call{schema_text, workload_text, config_text, {}, {}, {}};
    std::string payload = [&] {
      Tracer::Span span("report.advise_json");
      return RenderOrEmpty(renderer->Ranking(advice->result, session->schema()));
    }();
    triples[i].requests.push_back({true, svc::AdviseRequestJson(call), payload});

    // Two what-ifs on ranked, fragmented candidates: one disk-count delta,
    // one fact-granule delta.
    int added = 0;
    for (size_t r : advice->result.ranking) {
      const auto& c = advice->result.candidates[r];
      if (c.fragmentation.num_attrs() == 0 || added == 2) continue;
      svc::WhatIfCall w{schema_text, workload_text, config_text, {}, {}, {}, {}, {}, {}};
      warlock::WhatIfRequest direct;
      direct.fragmentation = c.fragmentation;
      for (const auto& a : c.fragmentation.attrs()) {
        const auto& dim = session->schema().dimension(a.dim);
        w.fragmentation.push_back({dim.name(), dim.level(a.level).name});
      }
      if (added == 0) {
        w.num_disks = direct.overrides.num_disks = 2 * sc->config.cost.disks.num_disks;
      } else {
        w.fact_granule = direct.overrides.fact_granule = 8;
      }
      auto answer = session->WhatIf(direct);
      if (!answer.ok()) continue;
      triples[i].requests.push_back(
          {false, svc::WhatIfRequestJson(w),
           RenderOrEmpty(renderer->QueryStats(answer->candidate, session->mix(),
                                              session->schema()))});
      ++added;
    }
  }

  // One client per server worker, one worker per hardware thread (the
  // server's default).
  const uint32_t workers = HardwareThreads();
  const uint32_t clients = workers;
  svc::ServerOptions server_options;  // defaults: ephemeral port, 16 sessions
  server_options.workers = workers;

  // Set-up: server start + first contact of the hot set (one advise each).
  std::vector<double> setups;
  std::unique_ptr<svc::Server> server;
  uint64_t setup_requests = 0;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    Tracer::Span span("service.setup");
    const double t = Now();
    server = std::make_unique<svc::Server>(server_options);
    const auto started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: server start: %s\n",
                   started.ToString().c_str());
      std::exit(2);
    }
    auto client = svc::Client::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   client.status().ToString().c_str());
      std::exit(2);
    }
    setup_requests = 0;
    for (uint32_t h = 0; h < hot; ++h) {
      auto reply = client->Call(triples[h].requests[0].json);
      ++setup_requests;
      report.Check(reply.ok() && reply->status.ok() &&
                       reply->payload == triples[h].requests[0].expected_payload,
                   "first-contact advise reply == direct Session render");
    }
    setups.push_back(Now() - t);
  }

  // The closed loop.
  struct Sample {
    double rtt_ms;
    bool advise;
    bool session_hit;
  };
  std::vector<std::vector<Sample>> samples(clients);
  std::atomic<uint64_t> sent{0}, failed{0}, mismatched{0};
  const double start = Now();
  const double deadline = start + options.seconds;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = svc::Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failed.fetch_add(1);
        return;
      }
      warlock::Rng rng(DeriveSeed(options.seed, 1000 + c));
      uint64_t request_id = (static_cast<uint64_t>(c) + 1) << 32;
      while (Now() < deadline) {
        const bool to_hot = rng.NextDouble() < kHotShare;
        const uint32_t t = to_hot ? static_cast<uint32_t>(rng.Uniform(hot))
                                  : hot + static_cast<uint32_t>(rng.Uniform(cold));
        const auto& reqs = triples[t].requests;
        size_t k = 0;
        if (reqs.size() > 1 && rng.NextDouble() >= kAdviseShare) {
          k = 1 + rng.Uniform(reqs.size() - 1);
        }
        const Request& req = reqs[k];
        const double t0 = Now();
        auto reply = [&] {
          Tracer::Span span(req.advise ? "service.rpc.advise" : "service.rpc.whatif",
                            ++request_id);
          return client->Call(req.json);
        }();
        const double rtt_ms = (Now() - t0) * 1e3;
        sent.fetch_add(1);
        if (!reply.ok() || !reply->status.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (reply->payload != req.expected_payload) mismatched.fetch_add(1);
        samples[c].push_back({rtt_ms, req.advise, reply->session_cache_hit});
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall = Now() - start;
  const double peak_rss = PeakRssMb();
  const svc::ServerStats stats = server->stats();
  server->Shutdown();

  for (uint64_t i = 0; i < sent.load(); ++i) report.Operation(i >= failed.load());
  report.Check(failed.load() == 0, "every reply is ok");
  report.Check(mismatched.load() == 0,
               "every reply is byte-identical to the direct Session render");
  report.Check(stats.requests_ok == sent.load() + setup_requests,
               "server requests_ok == requests sent");
  report.Check(stats.shed == 0 && stats.requests_error == 0,
               "no request shed or answered with an error");

  std::vector<double> all_ms, cold_advise_ms, advise_us, whatif_us;
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      all_ms.push_back(s.rtt_ms);
      if (s.advise && !s.session_hit) cold_advise_ms.push_back(s.rtt_ms);
      (s.advise ? advise_us : whatif_us).push_back(s.rtt_ms * 1e3);
    }
  }
  report.Check(!cold_advise_ms.empty(), "the mix reached cold triples");
  // Capped at p99: the tail the mix is sized for, whatever the throughput.
  const double tail_q = TailQuantile(all_ms.size(), 0.99);
  const double tail = Percentile(all_ms, tail_q);
  char note[320];
  std::snprintf(note, sizeof note,
                "service_mix: setup %.4f s, %u clients / %u workers, %zu "
                "triples (%u hot) vs cache %zu, %zu requests in %.2f s, p50 "
                "%.3f ms, p%g %.3f ms (n=%zu), cold advise median %.3f ms "
                "(n=%zu), cache hits %llu misses %llu evictions %llu",
                Median(setups), clients, workers, triples.size(), hot,
                server_options.cache_capacity, all_ms.size(), wall,
                Median(all_ms), tail_q * 100, tail, all_ms.size(),
                Median(cold_advise_ms), cold_advise_ms.size(),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                static_cast<unsigned long long>(stats.cache.evictions));
  report.Note(note);
  report.EndToEnd("setup_s", Median(setups), "s");
  report.EndToEnd("advise_s", Median(cold_advise_ms) / 1e3, "s");
  report.EndToEnd("ops_per_s", all_ms.size() / wall, "1/s");
  report.EndToEnd("op_p50_ms", Median(all_ms), "ms");
  report.EndToEnd("op_tail_ms", tail, "ms");
  report.EndToEnd("peak_rss_mb", peak_rss, "MB");

  if (!Tracer::enabled()) return;

  // --- Per-layer probes of the traced run -------------------------------------
  std::vector<double> request_bytes, response_bytes, parse_req_us,
      parse_resp_us, key_us;
  for (const Triple& triple : triples) {
    for (const Request& req : triple.requests) {
      request_bytes.push_back(req.json.size());
      const std::string response = svc::OkResponse(
          req.advise ? svc::kMethodAdvise : svc::kMethodWhatIf,
          req.expected_payload, true);
      response_bytes.push_back(response.size());
      double t = Now();
      auto parsed = svc::ParseRequest(req.json);
      parse_req_us.push_back((Now() - t) * 1e6);
      t = Now();
      (void)svc::ParseResponse(response);
      parse_resp_us.push_back((Now() - t) * 1e6);
      if (parsed.ok()) {
        t = Now();
        (void)svc::SessionCache::KeyFor(parsed->schema_text,
                                        parsed->workload_text,
                                        parsed->config_text);
        key_us.push_back((Now() - t) * 1e6);
      }
    }
  }
  const auto spans = Tracer::Aggregates();
  report.Layer("api.session_build_ms",
               SpanPercentileMs(spans, "api.session_build", 0.5), "ms");
  report.Layer("report.advise_json_us",
               SpanPercentileMs(spans, "report.advise_json", 0.5) * 1e3, "us");
  report.Layer("service.request_bytes", Median(request_bytes), "B");
  report.Layer("service.response_bytes", Median(response_bytes), "B");
  report.Layer("service.parse_request_us", Median(parse_req_us), "us");
  report.Layer("service.parse_response_us", Median(parse_resp_us), "us");
  report.Layer("service.key_us", Median(key_us), "us");
  report.Layer("service.rtt_us.advise", Median(advise_us), "us");
  report.Layer("service.rtt_us.whatif", Median(whatif_us), "us");
  report.Layer("service.rpc_samples", all_ms.size(), "count");
  report.Layer("session_cache.hits", stats.cache.hits, "count");
  report.Layer("session_cache.misses", stats.cache.misses, "count");
  report.Layer("session_cache.evictions", stats.cache.evictions, "count");
  report.Layer("service.payload_hits", stats.advise_payload_hits, "count");
}

}  // namespace perfbench
