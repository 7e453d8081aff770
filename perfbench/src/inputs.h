// perfbench/src/inputs.h
//
// Seeded inputs of the three workloads. The same --seed always renders the
// same inputs; building them is set-up, never a timed operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "dataset/manufacturers.h"
#include "serve/query.h"

namespace perfbench {

/// The paper-calibrated DMV corpus (dataset::generate_corpus at its default
/// seed), its documents in an order drawn from `seed`.
avtk::dataset::generated_corpus make_corpus(std::uint64_t seed);

/// The serial pipeline configuration every workload uses.
avtk::core::pipeline_config serial_pipeline();

/// The cold_analytics query mix over the pipeline's analyzed makers (every
/// kind) and the other makers present (the count kinds). Every entry has a
/// distinct canonical form, so a pass over a fresh engine answers each one
/// as a cache miss.
std::vector<avtk::serve::query> cold_query_mix(
    const std::vector<avtk::dataset::manufacturer>& analyzed,
    const std::vector<avtk::dataset::manufacturer>& present, std::uint64_t seed);

/// One request of the live_serve stream.
struct live_request {
  std::string line;
  bool ingest = false;
  avtk::dataset::manufacturer maker = avtk::dataset::manufacturer::waymo;
  /// Ingest: what the simulator put into the filing.
  std::size_t expect_disengagements = 0;
  std::size_t expect_mileage = 0;
  std::size_t expect_accidents = 0;
  /// Query: a maker-filtered `metrics` query, whose count is checked
  /// against the running expected total.
  bool maker_metrics = false;
};

/// One ingest plus the query rounds that follow it: the unit a timed
/// live_serve phase starts or stops at.
struct live_group {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct live_stream {
  std::vector<live_request> requests;
  std::vector<live_group> groups;
};

/// Fleet filings of waymo, delphi and nissan (one soak::build_workload
/// fleet each, a distinct seed per maker), merged in month order; after
/// every ingest, `rounds` rounds of soak::build_query_mix for every
/// streamed maker.
live_stream make_live_stream(std::uint64_t seed, int months, int rounds);

}  // namespace perfbench
