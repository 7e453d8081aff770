// perfbench/src/layers.h
//
// The traced run's per-layer probes: each layer's public entry point is
// called directly and timed from outside, on the same seeded inputs the
// workloads use.
#pragma once

#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "inputs.h"

namespace perfbench {

struct layer_inputs {
  const avtk::dataset::generated_corpus& corpus;
  const avtk::core::pipeline_result& batch;  ///< the pipeline's output over `corpus`
  const live_stream& stream;
};

/// Runs whole probe rounds (every layer once per round) until `budget_s`
/// has passed, at least one round; each metric is the median over rounds.
std::vector<metric> probe_layers(const layer_inputs& in, double budget_s, bool tiny);

}  // namespace perfbench
