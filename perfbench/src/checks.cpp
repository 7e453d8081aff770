// perfbench/src/checks.cpp
#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "nlp/ontology.h"

namespace perfbench {

namespace ds = avtk::dataset;
namespace json = avtk::obs::json;
namespace nlp = avtk::nlp;
using avtk::serve::query;
using avtk::serve::query_kind;

namespace {

bool close(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string str(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// The year a record counts under for a `year` filter: its event month,
// else its DMV release year.
int event_year(const ds::disengagement_record& d) {
  if (d.event_month) return d.event_month->year;
  if (d.event_date) return d.event_date->year;
  return d.report_year;
}
int event_year(const ds::accident_record& a) {
  return a.event_date ? a.event_date->year : a.report_year;
}

struct filter {
  std::optional<manufacturer> maker;
  std::optional<int> year;
  std::optional<nlp::fault_tag> tag;
  std::optional<nlp::failure_category> category;
};

record_truth recount_filtered(const ds::failure_database& db, const filter& f) {
  record_truth out;
  for (const auto& d : db.disengagements()) {
    if (f.maker && d.maker != *f.maker) continue;
    if (f.year && event_year(d) != *f.year) continue;
    if (f.tag && d.tag != *f.tag) continue;
    if (f.category && d.category != *f.category) continue;
    auto& m = out.makers[d.maker];
    ++m.disengagements;
    ++out.disengagements;
    ++m.tags[d.tag];
    switch (d.category) {
      case nlp::failure_category::ml_design:
        if (nlp::ml_subcategory_of(d.tag) == nlp::ml_subcategory::perception_recognition) {
          ++m.perception_recognition;
        } else {
          ++m.planner_controller;
        }
        break;
      case nlp::failure_category::system: ++m.system; break;
      case nlp::failure_category::unknown: ++m.unknown_category; break;
    }
    switch (d.mode) {
      case ds::modality::automatic: ++m.automatic; break;
      case ds::modality::manual: ++m.manual; break;
      case ds::modality::planned: ++m.planned; break;
      case ds::modality::unknown: ++m.unknown_mode; break;
    }
  }
  // A tag or category filter narrows the events, not the exposure.
  for (const auto& r : db.mileage()) {
    if (f.maker && r.maker != *f.maker) continue;
    if (f.year && r.month.year != *f.year) continue;
    out.makers[r.maker].miles += r.miles;
    ++out.makers[r.maker].mileage_rows;
    out.miles += r.miles;
  }
  for (const auto& a : db.accidents()) {
    if (f.maker && a.maker != *f.maker) continue;
    if (f.year && event_year(a) != *f.year) continue;
    ++out.makers[a.maker].accidents;
    ++out.accidents;
  }
  return out;
}

void mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}
template <typename T>
void mix_value(std::uint64_t& h, const T& v) {
  mix(h, &v, sizeof v);
}
void mix_string(std::uint64_t& h, const std::string& s) {
  mix_value(h, s.size());
  mix(h, s.data(), s.size());
}
template <typename T>
void mix_optional(std::uint64_t& h, const std::optional<T>& v) {
  mix_value(h, v.has_value());
  if (v) mix_value(h, *v);
}
void mix_date(std::uint64_t& h, const std::optional<avtk::date>& d) {
  mix_value(h, d.has_value());
  if (d) {
    mix_value(h, d->year);
    mix_value(h, d->month);
    mix_value(h, d->day);
  }
}

const json::value* member(const json::value& v, std::string_view key) {
  return v.is_object() ? v.find(key) : nullptr;
}

}  // namespace

double number_at(const json::value& v, std::string_view key) {
  const auto* m = member(v, key);
  return m != nullptr && m->is_number() ? m->as_number() : std::nan("");
}

record_truth recount(const std::vector<ds::disengagement_record>& dis,
                     const std::vector<ds::mileage_record>& mil,
                     const std::vector<ds::accident_record>& acc) {
  ds::failure_database db;
  for (const auto& d : dis) db.add_disengagement(d);
  for (const auto& m : mil) db.add_mileage(m);
  for (const auto& a : acc) db.add_accident(a);
  return recount_filtered(db, filter{});
}

std::uint64_t database_digest(const ds::failure_database& db) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& d : db.disengagements()) {
    mix_value(h, d.maker);
    mix_value(h, d.report_year);
    mix_date(h, d.event_date);
    mix_value(h, d.event_month.has_value());
    if (d.event_month) mix_value(h, d.event_month->index());
    mix_string(h, d.vehicle_id);
    mix_value(h, d.mode);
    mix_string(h, d.description);
    mix_value(h, d.road);
    mix_value(h, d.conditions);
    mix_optional(h, d.reaction_time_s);
    mix_value(h, d.tag);
    mix_value(h, d.category);
  }
  for (const auto& m : db.mileage()) {
    mix_value(h, m.maker);
    mix_value(h, m.report_year);
    mix_string(h, m.vehicle_id);
    mix_value(h, m.month.index());
    mix_value(h, m.miles);
  }
  for (const auto& a : db.accidents()) {
    mix_value(h, a.maker);
    mix_value(h, a.report_year);
    mix_date(h, a.event_date);
    mix_string(h, a.vehicle_id);
    mix_string(h, a.location);
    mix_string(h, a.description);
    mix_optional(h, a.av_speed_mph);
    mix_optional(h, a.other_speed_mph);
    mix_value(h, a.av_in_autonomous_mode);
    mix_value(h, a.rear_end);
    mix_value(h, a.near_intersection);
    mix_value(h, a.injuries);
  }
  return h;
}

void check_recovered(checker& check, const ds::failure_database& recovered,
                     const ds::generated_corpus& corpus) {
  auto truth = recount(corpus.disengagements, corpus.mileage, corpus.accidents);
  auto seen = recount_filtered(recovered, filter{});
  if (check.inject("batch.truth")) ++seen.makers.begin()->second.disengagements;

  check.expect(seen.disengagements == truth.disengagements, "batch.truth",
               "recovered " + std::to_string(seen.disengagements) + " disengagements, truth " +
                   std::to_string(truth.disengagements));
  check.expect(seen.accidents == truth.accidents, "batch.truth",
               "recovered " + std::to_string(seen.accidents) + " accidents, truth " +
                   std::to_string(truth.accidents));
  check.expect(close(seen.miles, truth.miles), "batch.truth",
               "recovered " + str(seen.miles) + " miles, truth " + str(truth.miles));
  std::set<manufacturer> makers;
  for (const auto& [m, unused] : truth.makers) makers.insert(m);
  for (const auto& [m, unused] : seen.makers) makers.insert(m);
  for (const auto m : makers) {
    const auto& t = truth.makers[m];
    const auto& s = seen.makers[m];
    const std::string who(ds::manufacturer_id(m));
    check.expect(s.disengagements == t.disengagements, "batch.truth",
                 who + ": recovered " + std::to_string(s.disengagements) +
                     " disengagements, truth " + std::to_string(t.disengagements));
    check.expect(s.accidents == t.accidents, "batch.truth",
                 who + ": recovered " + std::to_string(s.accidents) + " accidents, truth " +
                     std::to_string(t.accidents));
    check.expect(close(s.miles, t.miles), "batch.truth",
                 who + ": recovered " + str(s.miles) + " miles, truth " + str(t.miles));
  }
}

void corrupt_number_after(std::string& text, std::string_view key) {
  auto at = text.find(key);
  if (at == std::string::npos) return;
  for (at += key.size(); at < text.size(); ++at) {
    char& c = text[at];
    if (c >= '0' && c <= '9') {
      c = c == '9' ? '8' : static_cast<char>(c + 1);
      return;
    }
  }
}

namespace {

void check_fraction(checker& check, std::string_view name, const json::value& row,
                    std::string_view key, long long count, long long total,
                    const std::string& where) {
  const double expected = total > 0 ? static_cast<double>(count) / static_cast<double>(total) : 0;
  const double got = number_at(row, key);
  check.expect(close(got, expected, 1e-12), name,
               where + ": " + std::string(key) + " " + str(got) + ", recount " + str(expected));
}

void check_rows_metrics(checker& check, const json::value& payload, const record_truth& truth,
                        const query& q, const std::string& where) {
  const auto* rows = member(payload, "makers");
  if (rows == nullptr || !rows->is_array()) {
    check.expect(false, "cold.metrics", where + ": no makers array");
    return;
  }
  // The rows: the filtered maker, or every maker with a disengagement or a
  // mileage row in the selection, in enum order; rows with nothing at all
  // are dropped.
  std::vector<manufacturer> expected;
  if (q.maker) {
    expected.push_back(*q.maker);
  } else {
    for (const auto& [m, c] : truth.makers) {
      if (c.disengagements > 0 || c.mileage_rows > 0) expected.push_back(m);
    }
  }
  std::erase_if(expected, [&](manufacturer m) {
    const auto it = truth.makers.find(m);
    return it == truth.makers.end() ||
           (it->second.miles <= 0 && it->second.disengagements == 0 && it->second.accidents == 0);
  });
  check.expect(rows->as_array().size() == expected.size(), "cold.metrics",
               where + ": " + std::to_string(rows->as_array().size()) + " rows, recount " +
                   std::to_string(expected.size()));
  for (std::size_t i = 0; i < rows->as_array().size() && i < expected.size(); ++i) {
    const auto& row = rows->as_array()[i];
    const auto& c = truth.makers.at(expected[i]);
    const auto* name = member(row, "maker");
    const std::string who = where + " " + std::string(ds::manufacturer_id(expected[i]));
    check.expect(name != nullptr && name->is_string() &&
                     name->as_string() == ds::manufacturer_id(expected[i]),
                 "cold.metrics", who + ": maker out of order");
    check.expect(number_at(row, "disengagements") == static_cast<double>(c.disengagements),
                 "cold.metrics",
                 who + ": disengagements " + str(number_at(row, "disengagements")) +
                     ", recount " + std::to_string(c.disengagements));
    check.expect(number_at(row, "accidents") == static_cast<double>(c.accidents), "cold.metrics",
                 who + ": accidents " + str(number_at(row, "accidents")) + ", recount " +
                     std::to_string(c.accidents));
    check.expect(close(number_at(row, "miles"), c.miles), "cold.metrics",
                 who + ": miles " + str(number_at(row, "miles")) + ", recount " + str(c.miles));
    const double dpm = c.miles > 0 ? static_cast<double>(c.disengagements) / c.miles : 0.0;
    check.expect(close(number_at(row, "overall_dpm"), dpm), "cold.metrics",
                 who + ": overall_dpm " + str(number_at(row, "overall_dpm")) + ", recount " +
                     str(dpm));
  }
}

// The shared shape of the tags / categories / modality payloads: one row
// per maker with a total; returns the rows' summed totals.
long long check_breakdown(checker& check, const query& q, const json::value& payload,
                          const record_truth& truth, const std::string& where) {
  const auto kind = std::string(avtk::serve::query_kind_name(q.kind));
  const std::string name = "cold." + kind;
  const auto* rows = member(payload, "makers");
  if (rows == nullptr || !rows->is_array()) {
    check.expect(false, name, where + ": no makers array");
    return -1;
  }
  long long sum = 0;
  for (const auto& row : rows->as_array()) {
    const auto* id = member(row, "maker");
    const auto maker = id != nullptr && id->is_string()
                           ? ds::manufacturer_from_string(id->as_string())
                           : std::nullopt;
    if (!maker) {
      check.expect(false, name, where + ": row without a maker");
      continue;
    }
    const std::string who = where + " " + std::string(ds::manufacturer_id(*maker));
    const auto it = truth.makers.find(*maker);
    const maker_counts c = it == truth.makers.end() ? maker_counts{} : it->second;
    const double total = number_at(row, "total");
    check.expect(total == static_cast<double>(c.disengagements), name,
                 who + ": total " + str(total) + ", recount " + std::to_string(c.disengagements));
    sum += static_cast<long long>(total);
    double fraction_sum = 0;
    if (q.kind == query_kind::tags) {
      const auto* fr = member(row, "fractions");
      if (fr == nullptr || !fr->is_object()) {
        check.expect(false, name, who + ": no fractions");
        continue;
      }
      std::size_t present = 0;
      for (const auto& [tag, count] : c.tags) present += count > 0 ? 1 : 0;
      check.expect(fr->as_object().size() == present, name,
                   who + ": " + std::to_string(fr->as_object().size()) + " tags, recount " +
                       std::to_string(present));
      for (const auto tag : nlp::k_all_fault_tags) {
        const auto tc = c.tags.find(tag);
        const long long count = tc == c.tags.end() ? 0 : tc->second;
        if (count == 0) continue;
        check_fraction(check, name, *fr, nlp::tag_id(tag), count, c.disengagements, who);
        fraction_sum += number_at(*fr, nlp::tag_id(tag));
      }
    } else if (q.kind == query_kind::categories) {
      check_fraction(check, name, row, "planner_controller", c.planner_controller,
                     c.disengagements, who);
      check_fraction(check, name, row, "perception_recognition", c.perception_recognition,
                     c.disengagements, who);
      check_fraction(check, name, row, "system", c.system, c.disengagements, who);
      check_fraction(check, name, row, "unknown", c.unknown_category, c.disengagements, who);
      for (const char* key : {"planner_controller", "perception_recognition", "system", "unknown"}) {
        fraction_sum += number_at(row, key);
      }
    } else {
      check_fraction(check, name, row, "automatic", c.automatic, c.disengagements, who);
      check_fraction(check, name, row, "manual", c.manual, c.disengagements, who);
      check_fraction(check, name, row, "planned", c.planned, c.disengagements, who);
      // Table V has no column for an unknown initiator; its share is the
      // recount's.
      for (const char* key : {"automatic", "manual", "planned"}) fraction_sum += number_at(row, key);
      if (c.disengagements > 0) {
        fraction_sum += static_cast<double>(c.unknown_mode) / static_cast<double>(c.disengagements);
      }
    }
    if (c.disengagements > 0) {
      check.expect(close(fraction_sum, 1.0, 1e-9), "cold.fractions",
                   who + " " + kind + ": fractions sum to " + str(fraction_sum));
    }
  }
  return sum;
}

void check_mcf(checker& check, const json::value& payload, const std::string& where) {
  const auto* rows = member(payload, "makers");
  if (rows == nullptr || !rows->is_array() || rows->as_array().empty()) {
    check.expect(false, "cold.mcf_monotone", where + ": no makers");
    return;
  }
  const bool break_order = check.inject("cold.mcf_monotone");
  const bool break_band = check.inject("cold.mcf_band");
  for (const auto& row : rows->as_array()) {
    const auto* points = member(row, "points");
    if (points == nullptr || !points->is_array()) {
      check.expect(false, "cold.mcf_monotone", where + ": no points");
      continue;
    }
    std::vector<double> mcf;
    std::vector<double> lower;
    std::vector<double> upper;
    for (const auto& p : points->as_array()) {
      mcf.push_back(number_at(p, "mcf"));
      lower.push_back(number_at(p, "lower"));
      upper.push_back(number_at(p, "upper"));
    }
    if (mcf.size() >= 2 && break_order) std::swap(mcf.front(), mcf.back());
    if (!mcf.empty() && break_band) upper.back() = mcf.back() - 1.0;
    const auto* id = member(row, "maker");
    const std::string who = where + " " + (id != nullptr && id->is_string() ? id->as_string() : "?");
    for (std::size_t i = 0; i < mcf.size(); ++i) {
      if (i > 0) {
        check.expect(mcf[i] >= mcf[i - 1], "cold.mcf_monotone",
                     who + ": mcf falls from " + str(mcf[i - 1]) + " to " + str(mcf[i]));
      }
      // The band and the estimate sum in different orders; allow rounding.
      const double slack = 1e-12 * std::max(1.0, std::fabs(mcf[i]));
      check.expect(lower[i] <= mcf[i] + slack && mcf[i] <= upper[i] + slack, "cold.mcf_band",
                   who + ": mcf " + str(mcf[i]) + " outside [" + str(lower[i]) + ", " +
                       str(upper[i]) + "]");
    }
  }
}

}  // namespace

void check_payload(checker& check, const query& q, const std::string& payload,
                   const ds::failure_database& db, const record_truth& truth, maker_sums& sums) {
  const std::string where = q.canonical();
  const auto kind = std::string(avtk::serve::query_kind_name(q.kind));
  const auto parsed = json::parse(payload);
  if (!parsed) {
    check.expect(false, "cold." + kind, where + ": payload is not JSON");
    return;
  }
  const bool only_maker = q.maker && !q.year && !q.tag && !q.category;
  const bool unfiltered = !q.maker && !q.year && !q.tag && !q.category;
  if (q.kind == query_kind::mcf) {
    check_mcf(check, *parsed, where);
    return;
  }
  if (q.kind != query_kind::metrics && q.kind != query_kind::tags &&
      q.kind != query_kind::categories && q.kind != query_kind::modality) {
    return;  // trend / fit / compare / nhpp: covered by the warm-repeat check
  }
  const record_truth filtered =
      unfiltered ? truth : recount_filtered(db, filter{q.maker, q.year, q.tag, q.category});
  long long total = 0;
  if (q.kind == query_kind::metrics) {
    check_rows_metrics(check, *parsed, filtered, q, where);
    if (const auto* rows = member(*parsed, "makers"); rows != nullptr && rows->is_array()) {
      for (const auto& row : rows->as_array()) {
        total += static_cast<long long>(number_at(row, "disengagements"));
      }
    }
  } else {
    total = check_breakdown(check, q, *parsed, filtered, where);
  }
  if (only_maker) sums.filtered[kind] += total;
  if (unfiltered) sums.unfiltered[kind] = total;
}

void check_maker_sums(checker& check, const maker_sums& sums) {
  for (const auto& [kind, total] : sums.unfiltered) {
    const auto it = sums.filtered.find(kind);
    const long long filtered = it == sums.filtered.end() ? 0 : it->second;
    check.expect(filtered == total, "cold.maker_sum",
                 kind + ": maker-filtered totals sum to " + std::to_string(filtered) +
                     ", unfiltered total " + std::to_string(total));
  }
}

}  // namespace perfbench
