// The served run: one closed-loop client drives a seeded request stream
// through the public serving APIs (serve::BatchScheduler over one tree, or
// router::Frontend over a K-shard Router), then checks every answer it can.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "pim/metrics.hpp"
#include "router/frontend.hpp"
#include "workload.hpp"

namespace perfbench {

struct ServedResult {
  double setup_s = 0;  // tree/router build (+ WAL dir + initial checkpoint)
  double wall_s = 0;   // serving phase, first submit to last pump return
  // The serving phase with each phase's slowest 1% of batch cycles clipped
  // to its 99th percentile, plus the crash and recover_all hooks
  // (robust_serving_time in served.cpp): what throughput_ops_s divides by.
  double serve_s = 0;
  Usage usage;         // CPU time and context switches over the serving phase
  // Highest resident set seen after set-up and at every batch boundary of
  // the serving phase (input generation, which precedes both, is excluded).
  double peak_rss_mb = 0;
  std::vector<std::uint64_t> lat_ns;  // per request: submit -> resolving pump
  pimkd::pim::Snapshot ledger;        // over the serving phase, all trees
  std::vector<std::uint64_t> module_comm;  // per module (all trees), same span
  std::uint64_t storage_words = 0;         // at the end, all trees
  std::size_t live_points = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;             // responses carrying an error
  std::size_t checked_reads = 0;      // reads compared with the brute force
  std::vector<std::string> problems;  // failed checks (empty = correct)

  // Traced runs only.
  std::vector<std::uint64_t> hashes;  // response_hash per request
  pimkd::router::FrontendStats frontend;
  double recover_from_s = 0;  // restart from checkpoint + WAL after the run
  std::uint64_t frames_replayed = 0;
};

struct ServeOptions {
  std::string scratch;         // parent of the WAL directory
  SpanLog* spans = nullptr;    // non-null: traced run (spans + hashes)
};

ServedResult run_served(const Stream& st, const ServeOptions& opt);

// Field-wise sum of two ledger snapshots (Snapshot defines only operator-).
pimkd::pim::Snapshot plus(const pimkd::pim::Snapshot& a,
                          const pimkd::pim::Snapshot& b);

// Removes a directory tree when it goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
