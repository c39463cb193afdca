// The benchmark's named workloads and their seeded request streams.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "router/router.hpp"
#include "serve/request.hpp"
#include "serve/workload.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  // Mix fractions, key skew, initial size and query shapes. `requests` and
  // `seed` are filled in per run by make_stream.
  pimkd::serve::WorkloadSpec spec;
  std::size_t batch = 256;    // fixed admission size (Policy::kFixedSize)
  std::size_t shards = 0;     // 0: one tree behind serve::BatchScheduler;
                              // K: router::Frontend over a K-shard Router
  std::size_t modules = 64;   // PIM modules per tree
  bool wal = false;           // every-batch fdatasync WAL in a fresh dir
  bool crash = false;         // crash one module at 1/3, recover_all at 2/3
  // Stream length per second of --seconds: the length is fixed by (seconds,
  // this rate), never by how fast the host is, so every modeled counter
  // depends on the seed alone. Tuned so the serving phase lasts about
  // --seconds on a 4-core x86-64 host (read_zipf: see workload.cpp).
  double requests_per_second = 0;
};

// The workload table (read_zipf, churn_durable, scan_sharded), or nullptr.
const WorkloadDef* find_workload(const std::string& name);
const std::vector<WorkloadDef>& workloads();

// PIM module crashed by the churn_durable schedule.
inline constexpr std::size_t kCrashModule = 3;

// One request of the stream (see generate()). kNN k, eps and the radius are
// per-workload constants.
struct Op {
  pimkd::core::OpKind kind{};
  pimkd::PointId id = pimkd::kInvalidPoint;  // insert: predicted id; erase: target
  std::array<pimkd::Coord, 4> c{};           // point, or box lo then hi
};
inline constexpr int kMaxDim = 2;

struct Stream {
  const WorkloadDef* def = nullptr;
  pimkd::serve::WorkloadSpec spec;     // as generated (seed, requests set)
  std::vector<pimkd::Point> initial;   // build the tree(s) from these
  std::vector<Op> ops;                 // the request stream, arrival order
  std::size_t batches = 0;             // stream length is a whole number of these
  // Batch indices before which the module is crashed / recover_all() runs
  // (== batches when the workload has no crash schedule).
  std::size_t crash_batch = 0;
  std::size_t recover_batch = 0;

  std::size_t batch_size() const { return def->batch; }
  pimkd::Point point(const Op& op) const;
  pimkd::serve::Request request(std::size_t i) const;
};

Stream make_stream(const WorkloadDef& def, std::uint64_t seed, int seconds);

// serve::gen_serve_workload(spec)'s initial points and stream, with the
// stream converted to compact ops. The library's WorkloadOp is ~424 bytes
// per request; an Op is 40, so the stream served is a sixth of the memory.
void generate(const pimkd::serve::WorkloadSpec& spec,
              std::vector<pimkd::Point>& initial, std::vector<Op>& ops);

pimkd::core::PimKdConfig tree_config(const WorkloadDef& def);
pimkd::router::RouterConfig router_config(const WorkloadDef& def);

}  // namespace perfbench
