// perfbench/src/bench.h
//
// Shared pieces of the perfbench program: command-line options, the check
// ledger (with the self-test's wrong-answer injection), timing helpers and
// the result record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

inline double seconds_between(bench_clock::time_point a, bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: a few operations per workload instead of a timed run.
  bool tiny = false;
  /// Self-test: the named check is fed a deliberately wrong answer.
  std::string mutate;
  /// When the process started (the set-up clock's zero).
  bench_clock::time_point process_start;
};

/// Records the outcome of every output check. A check is named; the
/// self-test injects a wrong answer into one named check (`inject`) and
/// expects exactly that name among the failures.
class checker {
 public:
  explicit checker(std::string mutation) : mutation_(std::move(mutation)) {}

  /// True when this run feeds check `name` a wrong answer. The caller then
  /// corrupts the observed value before comparing it.
  bool inject(std::string_view name) {
    if (name != mutation_) return false;
    injected_ = true;
    return true;
  }

  void expect(bool ok, std::string_view name, const std::string& detail);

  bool ok() const { return failed_.empty(); }
  bool injected() const { return injected_; }
  std::size_t checks() const { return checks_; }
  const std::set<std::string>& failed() const { return failed_; }

 private:
  std::string mutation_;
  bool injected_ = false;
  std::size_t checks_ = 0;
  std::size_t reported_ = 0;
  std::set<std::string> failed_;
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct run_result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<metric> metrics;
};

/// Operation latencies of one timed phase.
struct op_log {
  std::vector<double> seconds;
  double busy = 0;  ///< summed operation time

  void add(double s) {
    seconds.push_back(s);
    busy += s;
  }
  double ops_per_s() const { return busy > 0 ? static_cast<double>(seconds.size()) / busy : 0; }
  double p50_ms() const;
};

double median(std::vector<double> values);
double peak_rss_mb();

/// The four end-to-end metrics every workload reports.
std::vector<metric> end_to_end_metrics(double setup_s, const op_log& ops);

/// Workload entry points. Each builds its inputs from `opt.seed`, runs its
/// timed phase for `opt.seconds` (or the tiny self-test size), checks the
/// outputs into `check`, and returns the end-to-end metrics (or, with
/// `opt.trace`, the per-layer metrics).
run_result run_batch_corpus(const options& opt, checker& check);
run_result run_cold_analytics(const options& opt, checker& check);
run_result run_live_serve(const options& opt, checker& check);

}  // namespace perfbench
