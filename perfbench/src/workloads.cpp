// perfbench/src/workloads.cpp
//
// The three workloads. Each runs single-threaded in this process: the
// pipeline at parallelism 1, the engine with one worker thread and every
// request executed on the calling thread, with no pacing. An operation is
// one corpus pass (batch_corpus), one query (cold_analytics) or one request
// line (live_serve); its latency is timed around the one public call that
// performs it, and the checks run outside that window. Every timed phase
// follows one untimed warm-up unit, whose outputs are checked like the rest.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "checks.h"
#include "core/analysis.h"
#include "inputs.h"
#include "layers.h"
#include "obs/json.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace perfbench {

namespace ds = avtk::dataset;
namespace sv = avtk::serve;
namespace json = avtk::obs::json;

namespace {

double since(bench_clock::time_point t0) { return seconds_between(t0, bench_clock::now()); }

/// One timed phase's operations.
struct phase {
  op_log ops;
  long long attempted = 0;
};

/// Runs whole units of work until the budget has passed (at least one
/// unit), or exactly `tiny_units` units in a self-test run.
void run_phase(double budget_s, bool tiny, int tiny_units, const std::function<void()>& unit) {
  const auto start = bench_clock::now();
  for (int done = 0; tiny ? done < tiny_units : (done == 0 || since(start) < budget_s); ++done) {
    unit();
  }
}

/// The traced run: per-layer probes for half the budget, then the
/// workload's own timed loop for the rest, so the run's own end-to-end
/// figures sit beside the per-layer ones.
run_result traced(const options& opt, const layer_inputs& in,
                  const std::function<phase(double budget_s)>& loop) {
  run_result out;
  out.metrics = probe_layers(in, opt.seconds / 2, opt.tiny);
  const phase p = loop(opt.seconds / 2);
  out.attempted = p.attempted;
  out.metrics.push_back({"traced.ops_per_s", p.ops.ops_per_s(), "op/s"});
  out.metrics.push_back({"traced.op_p50_ms", p.ops.p50_ms(), "ms"});
  return out;
}

avtk::core::pipeline_result run_once(const ds::generated_corpus& corpus) {
  return avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents, serial_pipeline());
}

}  // namespace

// ------------------------------------------------------------ batch_corpus

run_result run_batch_corpus(const options& opt, checker& check) {
  const auto corpus = make_corpus(opt.seed);
  const auto cfg = serial_pipeline();
  const double setup_s = seconds_between(opt.process_start, bench_clock::now());

  std::optional<std::uint64_t> first_digest;
  const auto loop = [&](double budget_s) {
    phase p;
    const auto pass = [&] {
      const auto t0 = bench_clock::now();
      const auto result =
          avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents, cfg);
      p.ops.add(since(t0));
      ++p.attempted;

      auto digest = database_digest(result.database);
      if (!first_digest) {
        first_digest = digest;
        check_recovered(check, result.database, corpus);
        auto claims = avtk::core::evaluate_headlines(result.database, result.stats.analyzed);
        check.expect(!claims.empty(), "batch.headlines", "no headline claims evaluated");
        if (!claims.empty() && check.inject("batch.headlines")) claims[0].measured_value *= 3;
        for (const auto& c : claims) {
          check.expect(c.within_tolerance(), "batch.headlines",
                       c.name + ": measured " + std::to_string(c.measured_value) + ", paper " +
                           std::to_string(c.paper_value) + ", tolerance " +
                           std::to_string(c.tolerance_fraction));
        }
      } else {
        if (check.inject("batch.repeat")) digest ^= 1;
        check.expect(digest == *first_digest, "batch.repeat",
                     "pass " + std::to_string(p.attempted) + " built a different database");
      }
    };
    pass();  // warm-up: checked, not timed
    p = phase{};
    run_phase(budget_s, opt.tiny, 2, pass);
    return p;
  };

  if (opt.trace) {
    const auto batch = run_once(corpus);
    const auto stream = make_live_stream(opt.seed, 2, 1);
    return traced(opt, layer_inputs{corpus, batch, stream}, loop);
  }
  const phase p = loop(opt.seconds);
  return run_result{p.attempted, 0, end_to_end_metrics(setup_s, p.ops)};
}

// ---------------------------------------------------------- cold_analytics

run_result run_cold_analytics(const options& opt, checker& check) {
  const auto corpus = make_corpus(opt.seed);
  const auto batch = run_once(corpus);
  const auto& db = batch.database;
  const auto mix = cold_query_mix(batch.stats.analyzed, db.manufacturers_present(), opt.seed);
  const auto truth = recount(db.disengagements(), db.mileage(), db.accidents());
  sv::engine_config ec;
  ec.threads = 1;
  ec.cache_capacity = 4 * mix.size();  // a pass never evicts
  const double setup_s = seconds_between(opt.process_start, bench_clock::now());
  check_recovered(check, db, corpus);  // the pipeline's database, against ground truth

  std::vector<std::string> first_payloads;
  const auto loop = [&](double budget_s) {
    phase p;
    const auto pass = [&] {
      // A fresh engine per pass, so every answer is a cold miss.
      auto engine = std::make_unique<sv::query_engine>(db, ec);
      std::vector<sv::query_response> cold;
      cold.reserve(mix.size());
      for (const auto& q : mix) {
        const auto t0 = bench_clock::now();
        cold.push_back(engine->execute(q));
        p.ops.add(since(t0));
        ++p.attempted;
      }

      const bool first = first_payloads.empty();
      maker_sums sums;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        bool hit = cold[i].cache_hit;
        if (i == 0 && check.inject("cold.all_miss")) hit = true;
        check.expect(!hit, "cold.all_miss", mix[i].canonical() + ": cold pass hit the cache");
        std::string bytes = *cold[i].payload;
        if (first) {
          const auto kind = mix[i].kind;
          const bool unfiltered = !mix[i].maker && !mix[i].year && !mix[i].tag && !mix[i].category;
          if (unfiltered && kind == sv::query_kind::metrics && check.inject("cold.metrics")) {
            corrupt_number_after(bytes, "\"disengagements\":");
          }
          if (unfiltered && kind == sv::query_kind::tags && check.inject("cold.tags")) {
            corrupt_number_after(bytes, "\"total\":");
          }
          if (unfiltered && kind == sv::query_kind::categories && check.inject("cold.categories")) {
            corrupt_number_after(bytes, "\"system\":0.");
          }
          if (unfiltered && kind == sv::query_kind::modality && check.inject("cold.modality")) {
            corrupt_number_after(bytes, "\"automatic\":0.");
          }
          if (unfiltered && kind == sv::query_kind::categories && check.inject("cold.fractions")) {
            corrupt_number_after(bytes, "\"unknown\":0.");
          }
          if (mix[i].maker && !mix[i].year && kind == sv::query_kind::modality &&
              check.inject("cold.maker_sum")) {
            corrupt_number_after(bytes, "\"total\":");
          }
          check_payload(check, mix[i], bytes, db, truth, sums);
          first_payloads.push_back(*cold[i].payload);
        } else {
          check.expect(bytes == first_payloads[i], "cold.repeat",
                       mix[i].canonical() + ": payload differs from the first pass");
        }
        // A warm repeat answers from the cache, byte for byte.
        const auto warm = engine->execute(mix[i]);
        std::string warm_bytes = *warm.payload;
        if (i == 0 && check.inject("cold.warm_identical")) warm_bytes[warm_bytes.size() / 2] ^= 1;
        check.expect(warm.cache_hit && warm_bytes == first_payloads[i], "cold.warm_identical",
                     mix[i].canonical() + ": warm repeat differs from the cold answer");
      }
      if (first) check_maker_sums(check, sums);
    };
    pass();  // warm-up: checked, not timed
    p = phase{};
    run_phase(budget_s, opt.tiny, 1, pass);
    return p;
  };

  if (opt.trace) {
    const auto stream = make_live_stream(opt.seed, 2, 1);
    return traced(opt, layer_inputs{corpus, batch, stream}, loop);
  }
  const phase p = loop(opt.seconds);
  return run_result{p.attempted, 0, end_to_end_metrics(setup_s, p.ops)};
}

// -------------------------------------------------------------- live_serve

namespace {

const json::value* first_row(const json::value& response) {
  const auto* payload = response.find("payload");
  const auto* rows = payload != nullptr ? payload->find("makers") : nullptr;
  if (rows == nullptr || !rows->is_array() || rows->as_array().empty()) return nullptr;
  return &rows->as_array().front();
}

}  // namespace

run_result run_live_serve(const options& opt, checker& check) {
  constexpr int k_months = 8;
  // One round per ingest keeps most requests on the recompute path; with
  // more rounds warm hits of a few microseconds become the median request,
  // whose run-to-run spread on a shared host is over 25%.
  constexpr int k_rounds = 1;
  const auto corpus = make_corpus(opt.seed);
  const auto batch = run_once(corpus);
  const auto& seed_db = batch.database;
  const auto stream = make_live_stream(opt.seed, k_months, k_rounds);
  std::map<ds::manufacturer, long long> seed_counts;
  for (const auto& d : seed_db.disengagements()) ++seed_counts[d.maker];
  sv::engine_config ec;
  ec.threads = 1;
  const double setup_s = seconds_between(opt.process_start, bench_clock::now());
  check_recovered(check, seed_db, corpus);  // the pipeline's database, against ground truth

  const auto loop = [&](double budget_s) {
    phase p;
    std::unique_ptr<sv::query_engine> engine;
    std::map<ds::manufacturer, long long> running;
    bool injected_ingest = false;
    bool injected_metrics = false;
    // One unit is a pass over the first `groups` groups of the stream on a
    // fresh engine: the whole stream when timed, the first few groups for
    // the warm-up and in the self-test.
    const auto pass = [&](std::size_t groups) {
      engine.reset();
      engine = std::make_unique<sv::query_engine>(seed_db, ec);
      running = seed_counts;
      for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t r = stream.groups[g].begin; r < stream.groups[g].end; ++r) {
          const auto& req = stream.requests[r];
          const auto t0 = bench_clock::now();
          std::string response = sv::handle_request_line(*engine, req.line);
          p.ops.add(since(t0));
          ++p.attempted;

          if (req.ingest) {
            if (!injected_ingest) {
              injected_ingest = true;
              if (check.inject("live.accepted")) {
                response.replace(response.find("\"ok\":true"), 9, "\"ok\":false");
              }
              if (check.inject("live.ingest_counts")) {
                corrupt_number_after(response, "\"disengagements\":");
              }
            }
            const auto parsed = json::parse(response);
            const auto* ok = parsed ? parsed->find("ok") : nullptr;
            const auto* ingest = parsed ? parsed->find("ingest") : nullptr;
            const bool accepted = ok != nullptr && ok->is_bool() && ok->as_bool() && ingest != nullptr;
            check.expect(accepted, "live.accepted", "clean filing refused: " + response.substr(0, 300));
            if (!accepted) continue;
            const double dis = number_at(*ingest, "disengagements");
            const double mil = number_at(*ingest, "mileage");
            const double acc = number_at(*ingest, "accidents");
            check.expect(dis == static_cast<double>(req.expect_disengagements) &&
                             mil == static_cast<double>(req.expect_mileage) &&
                             acc == static_cast<double>(req.expect_accidents),
                         "live.ingest_counts",
                         "filing added " + std::to_string(dis) + "/" + std::to_string(mil) + "/" +
                             std::to_string(acc) + " disengagements/mileage/accidents, simulator " +
                             std::to_string(req.expect_disengagements) + "/" +
                             std::to_string(req.expect_mileage) + "/" +
                             std::to_string(req.expect_accidents));
            running[req.maker] += static_cast<long long>(req.expect_disengagements);
          } else if (req.maker_metrics) {
            if (!injected_metrics && g > 0) {
              injected_metrics = true;
              if (check.inject("live.metrics_running")) {
                corrupt_number_after(response, "\"disengagements\":");
              }
            }
            const auto parsed = json::parse(response);
            const auto* row = parsed ? first_row(*parsed) : nullptr;
            const double got = row != nullptr ? number_at(*row, "disengagements") : -1;
            check.expect(got == static_cast<double>(running[req.maker]), "live.metrics_running",
                         std::string(ds::manufacturer_id(req.maker)) + " metrics count " +
                             std::to_string(got) + ", expected running total " +
                             std::to_string(running[req.maker]));
          }
        }
      }
    };
    const std::size_t few = std::min<std::size_t>(4, stream.groups.size());
    pass(few);  // warm-up: checked, not timed
    p = phase{};
    run_phase(budget_s, opt.tiny, 1, [&] { pass(opt.tiny ? few : stream.groups.size()); });
    return p;
  };

  if (opt.trace) return traced(opt, layer_inputs{corpus, batch, stream}, loop);
  const phase p = loop(opt.seconds);
  return run_result{p.attempted, 0, end_to_end_metrics(setup_s, p.ops)};
}

}  // namespace perfbench
