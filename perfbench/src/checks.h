// perfbench/src/checks.h
//
// Output checks against truth the benchmark computes itself: the generator's
// ground truth for the batch path, and recounts over the database's own
// records for the serve payloads. Nothing here calls the avtk builder it
// checks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "dataset/database.h"
#include "dataset/generator.h"
#include "obs/json.h"
#include "serve/query.h"

namespace perfbench {

using avtk::dataset::manufacturer;

/// Per-maker counts recomputed from records.
struct maker_counts {
  long long disengagements = 0;
  long long accidents = 0;
  double miles = 0;
  long long mileage_rows = 0;
  std::map<avtk::nlp::fault_tag, long long> tags;
  long long planner_controller = 0;
  long long perception_recognition = 0;
  long long system = 0;
  long long unknown_category = 0;
  long long automatic = 0;
  long long manual = 0;
  long long planned = 0;
  long long unknown_mode = 0;
};

/// Recounts over a database's records (or the generator's ground truth).
struct record_truth {
  std::map<manufacturer, maker_counts> makers;  ///< enum order
  long long disengagements = 0;
  long long accidents = 0;
  double miles = 0;
};

record_truth recount(const std::vector<avtk::dataset::disengagement_record>& dis,
                     const std::vector<avtk::dataset::mileage_record>& mil,
                     const std::vector<avtk::dataset::accident_record>& acc);

/// Order-sensitive digest of every field of every record.
std::uint64_t database_digest(const avtk::dataset::failure_database& db);

/// batch_corpus: the recovered database against the generator's truth.
void check_recovered(checker& check, const avtk::dataset::failure_database& recovered,
                     const avtk::dataset::generated_corpus& corpus);

/// Replaces the first digit after `key` by another digit: a wrong answer
/// one payload byte away from the real one.
void corrupt_number_after(std::string& text, std::string_view key);

/// cold_analytics: checks one cold payload of `q` against `truth` (the
/// recount of the unfiltered database). Maker-filtered totals are summed
/// into `maker_sums` for check_maker_sums.
struct maker_sums {
  std::map<std::string, long long> filtered;    ///< kind -> summed maker-filtered totals
  std::map<std::string, long long> unfiltered;  ///< kind -> unfiltered total
};
void check_payload(checker& check, const avtk::serve::query& q, const std::string& payload,
                   const avtk::dataset::failure_database& db, const record_truth& truth,
                   maker_sums& sums);
void check_maker_sums(checker& check, const maker_sums& sums);

/// Reads a JSON number member, NaN when absent.
double number_at(const avtk::obs::json::value& v, std::string_view key);

}  // namespace perfbench
