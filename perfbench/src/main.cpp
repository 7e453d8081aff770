// perfbench/src/main.cpp
//
//   perfbench --workload <batch_corpus|cold_analytics|live_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--mutate <check>]
//
// Prints the run's result as the last line of standard output:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Check failures are reported on standard error, the names
// of the failed checks on a final "perfbench: failed checks:" line.
//
// --tiny runs a few operations per workload (the self-test size) and
// --mutate feeds the named check a deliberately wrong answer; see
// perfbench/selftest.
#include <charconv>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

using perfbench::options;

bool parse_number(std::string_view text, double& out) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_args(int argc, char** argv, options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    double n = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!parse_number(value, n) || n < 0 || n != static_cast<double>(static_cast<long long>(n))) {
        return false;
      }
      opt.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!parse_number(value, n) || !(n > 0)) return false;
      opt.seconds = n;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--mutate") {
      opt.mutate = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

void print_result(bool correct, const perfbench::run_result& r) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    if (i > 0) out += ',';
    out += "\"" + r.metrics[i].name + "\":{\"value\":" + value + ",\"unit\":\"" +
           r.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  opt.process_start = perfbench::bench_clock::now();
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <batch_corpus|cold_analytics|live_serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--mutate <check>]\n";
    return 2;
  }
  perfbench::checker check(opt.mutate);
  perfbench::run_result result;
  try {
    if (opt.workload == "batch_corpus") {
      result = perfbench::run_batch_corpus(opt, check);
    } else if (opt.workload == "cold_analytics") {
      result = perfbench::run_cold_analytics(opt, check);
    } else if (opt.workload == "live_serve") {
      result = perfbench::run_live_serve(opt, check);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (!opt.mutate.empty() && !check.injected()) {
    std::cerr << "perfbench: --mutate " << opt.mutate << " names no check this run reached\n";
    return 3;
  }
  std::string failed;
  for (const auto& name : check.failed()) failed += " " + name;
  std::cerr << "perfbench: " << check.checks() << " checks, failed checks:"
            << (failed.empty() ? " none" : failed) << "\n";
  print_result(check.ok() && check.checks() > 0, result);
  return 0;
}
