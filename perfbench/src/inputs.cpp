// perfbench/src/inputs.cpp
#include "inputs.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "soak/workload.h"
#include "util/rng.h"

namespace perfbench {

namespace ds = avtk::dataset;
namespace sv = avtk::serve;

namespace {

// splitmix64: spreads small consecutive --seed values over the seed space.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ds::generated_corpus make_corpus(std::uint64_t seed) {
  // The generator's default seed is the corpus calibrated to the paper's
  // published numbers, scan noise included; --seed shuffles the order the
  // documents arrive in (delivered and pristine twins stay paired).
  auto corpus = ds::generate_corpus();
  avtk::rng gen(mix64(seed));
  auto& docs = corpus.documents;
  for (std::size_t i = docs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(docs[i - 1], docs[j]);
    std::swap(corpus.pristine_documents[i - 1], corpus.pristine_documents[j]);
  }
  return corpus;
}

avtk::core::pipeline_config serial_pipeline() {
  avtk::core::pipeline_config cfg;
  cfg.parallelism = 1;
  return cfg;
}

std::vector<sv::query> cold_query_mix(const std::vector<ds::manufacturer>& analyzed,
                                      const std::vector<ds::manufacturer>& present,
                                      std::uint64_t seed) {
  using sv::query_kind;
  std::vector<sv::query> mix;
  const auto add = [&](query_kind kind, auto&& tweak) {
    sv::query q;
    q.kind = kind;
    tweak(q);
    mix.push_back(q);
  };
  const std::uint64_t mcf_seed = mix64(seed ^ 0x6d6366ull) % 1000000;

  // Unfiltered: every kind once.
  for (const auto kind : sv::k_all_query_kinds) {
    add(kind, [&](sv::query& q) { q.seed = mcf_seed; });
  }
  // Each analyzed maker, every per-maker kind.
  for (const auto maker : analyzed) {
    for (const auto kind : sv::k_all_query_kinds) {
      if (kind == query_kind::compare) continue;
      add(kind, [&](sv::query& q) {
        q.maker = maker;
        q.seed = mcf_seed;
      });
    }
  }
  // The makers left out of the analysis still answer the count kinds, so
  // maker-filtered totals can be summed back to the unfiltered ones.
  for (const auto maker : present) {
    if (std::find(analyzed.begin(), analyzed.end(), maker) != analyzed.end()) continue;
    for (const auto kind : {query_kind::metrics, query_kind::tags, query_kind::categories,
                            query_kind::modality}) {
      add(kind, [&](sv::query& q) { q.maker = maker; });
    }
  }
  // Year filters (the corpus spans 2014-09 .. 2016-11).
  for (const int year : {2014, 2015, 2016}) {
    for (const auto kind : {query_kind::metrics, query_kind::tags, query_kind::categories,
                            query_kind::modality, query_kind::trend}) {
      add(kind, [&](sv::query& q) { q.year = year; });
    }
  }
  // Tag filters.
  for (const auto tag : {avtk::nlp::fault_tag::recognition_system, avtk::nlp::fault_tag::software,
                         avtk::nlp::fault_tag::environment, avtk::nlp::fault_tag::planner}) {
    for (const auto kind : {query_kind::metrics, query_kind::categories, query_kind::modality}) {
      add(kind, [&](sv::query& q) { q.tag = tag; });
    }
  }
  // Category filters.
  for (const auto cat : {avtk::nlp::failure_category::ml_design, avtk::nlp::failure_category::system,
                         avtk::nlp::failure_category::unknown}) {
    for (const auto kind : {query_kind::metrics, query_kind::tags, query_kind::modality}) {
      add(kind, [&](sv::query& q) { q.category = cat; });
    }
  }
  // Maker + year.
  for (std::size_t i = 0; i < analyzed.size() && i < 4; ++i) {
    for (const int year : {2015, 2016}) {
      for (const auto kind : {query_kind::metrics, query_kind::tags}) {
        add(kind, [&](sv::query& q) {
          q.maker = analyzed[i];
          q.year = year;
        });
      }
    }
  }
  // More bootstrap seeds and extrapolation horizons.
  for (const std::uint64_t extra : {1ull, 2ull}) {
    add(query_kind::mcf, [&](sv::query& q) { q.seed = mcf_seed + extra; });
  }
  for (const double horizon : {1000.0, 100000.0, 1000000.0}) {
    add(query_kind::nhpp, [&](sv::query& q) { q.horizon_miles = horizon; });
  }
  return mix;
}

namespace {

// What build_workload renders for one month, from the simulator's own
// records: the month's disengagement report (when the month has mileage or
// events) and then one accident report per accident dated in the month.
struct filing_truth {
  std::size_t disengagements = 0;
  std::size_t mileage = 0;
  std::size_t accidents = 0;
};

std::vector<std::vector<filing_truth>> fleet_truth_by_month(const avtk::sim::fleet_result& fleet) {
  std::vector<std::vector<filing_truth>> out(static_cast<std::size_t>(fleet.months));
  std::map<std::int64_t, std::size_t> slot;
  auto month = fleet.first_month;
  for (int m = 0; m < fleet.months; ++m, month = month.next()) {
    slot[month.index()] = static_cast<std::size_t>(m);
  }
  std::vector<filing_truth> report(out.size());
  for (const auto& rec : fleet.database.mileage()) {
    if (const auto it = slot.find(rec.month.index()); it != slot.end()) ++report[it->second].mileage;
  }
  for (const auto& rec : fleet.database.disengagements()) {
    const auto bucket = rec.month_bucket();
    if (!bucket) continue;
    if (const auto it = slot.find(bucket->index()); it != slot.end()) {
      ++report[it->second].disengagements;
    }
  }
  for (std::size_t m = 0; m < out.size(); ++m) {
    if (report[m].mileage > 0 || report[m].disengagements > 0) out[m].push_back(report[m]);
  }
  for (const auto& acc : fleet.database.accidents()) {
    if (!acc.event_date) continue;
    const avtk::year_month ym{acc.event_date->year, acc.event_date->month};
    if (const auto it = slot.find(ym.index()); it != slot.end()) {
      out[it->second].push_back(filing_truth{0, 0, 1});
    }
  }
  return out;
}

}  // namespace

live_stream make_live_stream(std::uint64_t seed, int months, int rounds) {
  const ds::manufacturer makers[] = {ds::manufacturer::waymo, ds::manufacturer::delphi,
                                     ds::manufacturer::nissan};
  live_stream out;

  struct fleet_filings {
    std::vector<avtk::soak::soak_document> documents;
    std::vector<std::vector<filing_truth>> truth;
  };
  std::vector<fleet_filings> fleets;
  for (std::size_t i = 0; i < std::size(makers); ++i) {
    avtk::soak::workload_config cfg;
    cfg.fleet.maker = makers[i];
    cfg.fleet.vehicles = 4;
    cfg.fleet.first_month = {2015, 3};
    cfg.fleet.months = months;
    cfg.fleet.miles_per_vehicle_month = 1200;
    cfg.fleet.seed = mix64(seed * 31 + i + 1);
    cfg.chaos_fraction = 0.0;
    auto w = avtk::soak::build_workload(cfg);
    fleet_filings f;
    f.truth = fleet_truth_by_month(w.fleet);
    f.documents = std::move(w.documents);
    std::size_t expected = 0;
    for (const auto& month : f.truth) expected += month.size();
    if (expected != f.documents.size()) {
      throw std::runtime_error("live stream: fleet of " +
                               std::string(ds::manufacturer_id(makers[i])) + " rendered " +
                               std::to_string(f.documents.size()) + " filings, expected " +
                               std::to_string(expected));
    }
    fleets.push_back(std::move(f));
  }

  std::vector<std::string> query_round;
  std::vector<std::pair<ds::manufacturer, bool>> query_meta;
  for (const auto maker : makers) {
    for (const auto& q : avtk::soak::build_query_mix(maker)) {
      query_round.push_back(avtk::soak::query_request_line(q));
      query_meta.emplace_back(maker, q.kind == sv::query_kind::metrics && q.maker.has_value());
    }
  }

  // Month order across fleets: every maker's filings for a month, then the
  // next month.
  std::vector<std::size_t> next_doc(fleets.size(), 0);
  for (int m = 0; m < months; ++m) {
    for (std::size_t f = 0; f < fleets.size(); ++f) {
      for (const auto& truth : fleets[f].truth[static_cast<std::size_t>(m)]) {
        live_group group;
        group.begin = out.requests.size();
        live_request ingest;
        ingest.line = fleets[f].documents[next_doc[f]++].request_line;
        ingest.ingest = true;
        ingest.maker = makers[f];
        ingest.expect_disengagements = truth.disengagements;
        ingest.expect_mileage = truth.mileage;
        ingest.expect_accidents = truth.accidents;
        out.requests.push_back(std::move(ingest));
        for (int r = 0; r < rounds; ++r) {
          for (std::size_t k = 0; k < query_round.size(); ++k) {
            live_request q;
            q.line = query_round[k];
            q.maker = query_meta[k].first;
            q.maker_metrics = query_meta[k].second;
            out.requests.push_back(std::move(q));
          }
        }
        group.end = out.requests.size();
        out.groups.push_back(group);
      }
    }
  }
  return out;
}

}  // namespace perfbench
