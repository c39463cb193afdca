// pimkd_perfbench: runs one named workload with one seed in one process and
// prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
// (spans around every call into a layer, then a direct replay into the
// layers) and prints the per-layer metrics. Diagnostics go to stderr.
//
//   pimkd_perfbench --workload read_zipf --seed 1 --seconds 20 --trace 0
//   pimkd_perfbench --selftest
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "served.hpp"
#include "workload.hpp"

namespace {

using perfbench::Metric;
using perfbench::Metrics;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  bool selftest = false;
};

// Relative to the working directory (the repository root under run.py).
const std::string kScratchDir = ".bench_run";  // WAL directories
const std::string kTraceDir = ".bench_run/traces";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pimkd_perfbench: %s\nusage: pimkd_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n"
               "       pimkd_perfbench --selftest\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else usage(("unknown flag " + k).c_str());
  }
  if (!a.selftest && !perfbench::find_workload(a.workload))
    usage(("unknown workload '" + a.workload + "'").c_str());
  if (a.seconds < 1) usage("--seconds must be >= 1");
  return a;
}

// Nearest-rank percentile of an unsorted sample (reorders it).
double percentile_us(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return 1e-3 * static_cast<double>(v[rank]);
}

Metrics end_to_end(perfbench::ServedResult& r) {
  const double n = static_cast<double>(r.attempted);
  const double live = static_cast<double>(std::max<std::size_t>(r.live_points, 1));
  Metrics m;
  m["setup_s"] = {r.setup_s, "s"};
  m["throughput_ops_s"] = {n / r.serve_s, "ops/s"};
  m["latency_p50_us"] = {percentile_us(r.lat_ns, 0.50), "us"};
  m["host_cpu_us_per_op"] = {1e6 * r.usage.cpu_s / n, "us/op"};
  m["peak_rss_mb"] = {r.peak_rss_mb, "MB"};
  m["model_comm_time_per_op"] = {static_cast<double>(r.ledger.comm_time) / n,
                                 "words/op"};
  m["model_comm_words_per_op"] = {
      static_cast<double>(r.ledger.communication) / n, "words/op"};
  m["model_storage_words_per_point"] = {
      static_cast<double>(r.storage_words) / live, "words/point"};
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metric.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const std::uint64_t origin = perfbench::now_ns();
  const perfbench::WorkloadDef& def = *perfbench::find_workload(a.workload);
  // Inputs are generated before any timing starts.
  const perfbench::Stream st = perfbench::make_stream(def, a.seed, a.seconds);
  {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(stderr, "input generation: peak RSS %.0f MB (freed before set-up)\n",
                 static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  std::filesystem::create_directories(kScratchDir);

  perfbench::SpanLog log;
  perfbench::ServeOptions opt;
  opt.scratch = kScratchDir;
  opt.spans = a.trace ? &log : nullptr;
  perfbench::ServedResult served = perfbench::run_served(st, opt);

  std::fprintf(stderr,
               "%s seed=%llu: %zu requests in %zu batches, %.3f s serving "
               "(%.0f ops/s by wall time%s; %.3f s with clipped cycles), "
               "%zu reads checked by brute force\n",
               def.name.c_str(), static_cast<unsigned long long>(a.seed),
               served.attempted, st.batches, served.wall_s,
               static_cast<double>(served.attempted) / served.wall_s,
               a.trace ? ", traced" : "", served.serve_s,
               served.checked_reads);

  // p99 is a reference figure only: its run-to-run spread on a shared 4-core
  // host exceeds any bound an end-to-end metric may carry (README.md).
  std::fprintf(stderr, "latency p99 %.1f us (reference only)\n",
               percentile_us(served.lat_ns, 0.99));

  std::vector<std::string> problems = served.problems;
  Metrics metrics;
  if (a.trace) {
    metrics = perfbench::replay_layers(st, served, kScratchDir, log, problems);
    std::filesystem::create_directories(kTraceDir);
    const std::string path = kTraceDir + "/spans-" + def.name + ".csv.gz";
    if (!log.write_csv_gz(path, origin))
      problems.push_back("could not write " + path);
    else
      std::fprintf(stderr, "%zu spans written to %s\n", log.size(), path.c_str());
  } else {
    metrics = end_to_end(served);
  }
  for (const std::string& p : problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  print_result(correct, served.attempted, served.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.selftest) return perfbench::run_selftest();
    return run(a);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "pimkd_perfbench: %s\n", ex.what());
    return 1;
  }
}
