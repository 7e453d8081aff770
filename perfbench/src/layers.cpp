// perfbench/src/layers.cpp
#include "layers.h"

#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "core/analysis.h"
#include "dataset/view.h"
#include "ingest/processor.h"
#include "nlp/classifier.h"
#include "obs/json.h"
#include "ocr/engine.h"
#include "ocr/postprocess.h"
#include "reliability/events.h"
#include "reliability/mcf.h"
#include "reliability/nhpp.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "serve/query.h"

namespace perfbench {

namespace ds = avtk::dataset;
namespace sv = avtk::serve;
namespace json = avtk::obs::json;

namespace {

double ms_since(bench_clock::time_point t0) {
  return seconds_between(t0, bench_clock::now()) * 1e3;
}

/// Per-metric samples, one per probe round.
class samples {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    auto& s = series_[name];
    s.unit = unit;
    s.values.push_back(v);
    if (s.order == 0) s.order = ++next_;
  }
  std::vector<metric> medians() const {
    std::vector<metric> out(series_.size());
    for (const auto& [name, s] : series_) out[s.order - 1] = {name, median(s.values), s.unit};
    return out;
  }

 private:
  struct series {
    std::string unit;
    std::vector<double> values;
    std::size_t order = 0;
  };
  std::map<std::string, series> series_;
  std::size_t next_ = 0;
};

// Stage II: OCR recovery, then parse on the recovered text with OCR off.
void probe_stage2(const ds::generated_corpus& corpus, const avtk::ocr::mock_ocr_engine& ocr,
                  const avtk::ingest::document_processor& parser, samples& out) {
  double ocr_ms = 0;
  double parse_ms = 0;
  std::size_t lines = 0;
  std::size_t manual = 0;
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    const auto& doc = corpus.documents[i];
    auto t0 = bench_clock::now();
    const auto recognized = ocr.recognize(doc);
    ocr_ms += ms_since(t0);
    lines += recognized.lines.size();

    avtk::ocr::document recovered = doc;
    std::size_t k = 0;
    for (auto& page : recovered.pages) {
      for (auto& line : page.lines) {
        if (k < recognized.lines.size()) line = recognized.lines[k++].text;
      }
    }
    t0 = bench_clock::now();
    const auto scan = parser.scan(recovered, &corpus.pristine_documents[i], i);
    parse_ms += ms_since(t0);
    manual += scan.manual_transcriptions;
  }
  out.add("ocr.recover_ms", "ms", ocr_ms);
  out.add("ocr.lines", "count", static_cast<double>(lines));
  out.add("parse.scan_ms", "ms", parse_ms);
  out.add("parse.manual_transcriptions", "count", static_cast<double>(manual));
}

void probe_stage3_4(const avtk::core::pipeline_result& batch,
                    const avtk::nlp::keyword_voting_classifier& classifier, samples& out) {
  auto copy = batch.database;
  auto t0 = bench_clock::now();
  const auto unknown = avtk::core::label_disengagements(copy, classifier, 1);
  out.add("nlp.label_ms", "ms", ms_since(t0));
  out.add("nlp.unknown_tags", "count", static_cast<double>(unknown));

  const auto& db = batch.database;
  const auto& makers = batch.stats.analyzed;
  t0 = bench_clock::now();
  const auto q1 = avtk::core::answer_q1(db, makers);
  const auto q2 = avtk::core::answer_q2(db, makers);
  const auto q3 = avtk::core::answer_q3(db, makers);
  const auto q4 = avtk::core::answer_q4(db, makers);
  const auto q5 = avtk::core::answer_q5(db, makers);
  const auto claims = avtk::core::evaluate_headlines(db, makers);
  out.add("core.analysis_ms", "ms", ms_since(t0));
  (void)q1, (void)q2, (void)q3, (void)q4, (void)q5, (void)claims;
}

void probe_stage4_builders(const ds::failure_database& db, samples& out) {
  sv::engine_config ec;
  ec.threads = 1;
  sv::query_engine engine(db, ec);
  double bytes = 0;
  for (const auto kind : sv::k_all_query_kinds) {
    sv::query q;
    q.kind = kind;
    const auto t0 = bench_clock::now();
    const auto r = engine.execute(q);
    out.add("serve.cold." + std::string(sv::query_kind_name(kind)) + "_ms", "ms", ms_since(t0));
    bytes += static_cast<double>(r.payload->size());
  }
  out.add("serve.payload_bytes", "bytes", bytes);

  const ds::database_view view(db);
  auto t0 = bench_clock::now();
  const auto months = view.vehicle_months();
  out.add("dataset.vehicle_months_ms", "ms", ms_since(t0));
  (void)months;

  const auto processes = avtk::reliability::extract_processes(view);
  double mcf_ms = 0;
  double trend_ms = 0;
  for (const auto& mp : processes) {
    const std::span<const avtk::reliability::event_process> units =
        mp.vehicles.empty() ? std::span(&mp.fleet, 1) : std::span(mp.vehicles);
    avtk::reliability::mcf_options options;
    options.max_points = 200;
    t0 = bench_clock::now();
    const auto estimate = avtk::reliability::estimate_mcf(units, options);
    mcf_ms += ms_since(t0);
    t0 = bench_clock::now();
    const auto trend = avtk::reliability::fit_trend(std::span(&mp.fleet, 1));
    trend_ms += ms_since(t0);
    (void)estimate, (void)trend;
  }
  out.add("reliability.mcf_ms", "ms", mcf_ms);
  out.add("reliability.fit_trend_ms", "ms", trend_ms);

  t0 = bench_clock::now();
  const auto index = sv::build_query_index(db, nullptr);
  out.add("serve.index.build_ms", "ms", ms_since(t0));
}

struct ingest_docs {
  avtk::ocr::document delivered;
  avtk::ocr::document pristine;
};

// The documents of a wire ingest request line.
ingest_docs docs_of(const std::string& line) {
  const auto doc = json::parse(line);
  const auto* spec = doc ? doc->find("ingest") : nullptr;
  const auto* text = spec ? spec->find("text") : nullptr;
  const auto* pristine = spec ? spec->find("pristine") : nullptr;
  const auto* title = spec ? spec->find("title") : nullptr;
  if (text == nullptr || pristine == nullptr || title == nullptr) {
    throw std::runtime_error("live stream: malformed ingest request");
  }
  ingest_docs out{avtk::ocr::document::from_text(text->as_string()),
                  avtk::ocr::document::from_text(pristine->as_string())};
  out.delivered.title = title->as_string();
  out.pristine.title = title->as_string();
  return out;
}

// The live path: a slice of the live_serve stream, its layers called
// directly on a fresh engine over the seed database.
void probe_live(const ds::failure_database& seed_db, const live_stream& stream,
                const avtk::ingest::document_processor& processor, std::size_t groups,
                samples& out) {
  sv::engine_config ec;
  ec.threads = 1;
  sv::query_engine engine(seed_db, ec);
  std::vector<double> parse_us;
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<double> process_ms;
  std::vector<double> ingest_ms;
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (std::size_t g = 0; g < groups && g < stream.groups.size(); ++g) {
    for (std::size_t r = stream.groups[g].begin; r < stream.groups[g].end; ++r) {
      const auto& req = stream.requests[r];
      if (req.ingest) {
        const auto docs = docs_of(req.line);
        auto t0 = bench_clock::now();
        const auto processed = processor.process(docs.delivered, &docs.pristine);
        process_ms.push_back(ms_since(t0));
        t0 = bench_clock::now();
        const auto ingested = engine.ingest_document(docs.delivered, &docs.pristine);
        ingest_ms.push_back(ms_since(t0));
        if (!processed.accepted() || !ingested.accepted()) {
          throw std::runtime_error("live probe: clean filing refused");
        }
        continue;
      }
      auto t0 = bench_clock::now();
      const auto q = sv::parse_query(req.line);
      parse_us.push_back(ms_since(t0) * 1e3);
      if (!q) throw std::runtime_error("live probe: query line does not parse");
      t0 = bench_clock::now();
      const auto response = engine.execute(*q);
      const double ms = ms_since(t0);
      if (response.cache_hit) {
        ++hits;
        hit_us.push_back(ms * 1e3);
      } else {
        ++misses;
        miss_ms.push_back(ms);
      }
    }
  }
  out.add("serve.protocol.parse_us", "us", median(parse_us));
  out.add("serve.hit_us", "us", median(hit_us));
  out.add("serve.miss_ms", "ms", median(miss_ms));
  out.add("serve.cache.hit_ratio", "ratio",
          hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0);
  out.add("serve.cache.entries", "count", static_cast<double>(engine.cache_size()));
  out.add("serve.cache.evictions", "count", static_cast<double>(engine.cache_evictions()));
  out.add("ingest.process_ms", "ms", median(process_ms));
  out.add("serve.ingest_ms", "ms", median(ingest_ms));
}

}  // namespace

std::vector<metric> probe_layers(const layer_inputs& in, double budget_s, bool tiny) {
  const avtk::ocr::mock_ocr_engine ocr(avtk::ocr::lexicon::builtin());
  avtk::ingest::processor_config parse_only;
  parse_only.run_ocr = false;
  const avtk::ingest::document_processor parser(parse_only);
  avtk::ingest::processor_config live;
  live.strict = true;  // the serve ingestion path always scans strictly
  const avtk::ingest::document_processor processor(live);
  const avtk::nlp::keyword_voting_classifier classifier(avtk::nlp::failure_dictionary::builtin());
  (void)processor.classifier();  // built once, outside the timed calls

  samples out;
  const auto start = bench_clock::now();
  for (int round = 0;; ++round) {
    if (round > 0 && (tiny || seconds_between(start, bench_clock::now()) >= budget_s)) break;
    probe_stage2(in.corpus, ocr, parser, out);
    probe_stage3_4(in.batch, classifier, out);
    probe_stage4_builders(in.batch.database, out);
    probe_live(in.batch.database, in.stream, processor, tiny ? 1 : 3, out);
  }
  return out.medians();
}

}  // namespace perfbench
