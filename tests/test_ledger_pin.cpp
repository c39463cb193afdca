// Cross-version ledger pin: one seeded P=64 insert/erase run under message
// loss and a module crash, with every modeled cost it produces hard-coded.
// Host-side refactors of the update and storage paths must leave the PIM
// cost model untouched, so these values may only change together with a
// deliberate change to what the model charges (and that change must say so).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "util/generators.hpp"

namespace pimkd::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t hash_words(const std::vector<std::uint64_t>& v) {
  return fnv1a(kFnvBasis, v.data(), v.size() * sizeof(std::uint64_t));
}

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint64_t x : v) s += x;
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Pinned {
  pim::Snapshot snap;
  std::uint64_t work_hash = 0, work_sum = 0;
  std::uint64_t comm_hash = 0, comm_sum = 0;
  std::uint64_t storage = 0;
  std::uint64_t counter_updates = 0, words_counters = 0;
  std::uint64_t dropped = 0;
  std::size_t stale_problems = 0;
  std::uint64_t stale_state_hash = 0;
  std::uint64_t resynced = 0;
  pim::Snapshot after_resync;
  std::uint64_t trace_hash = 0;
  std::size_t trace_bytes = 0;
};

// Build 3000 points on 64 modules; m3 and m40 lose counter words from round 1;
// m21 crashes at round 9. Six batches of inserts, erases and kNN reads, with
// recovery after the fourth; then a checkpoint hash of the stale tree and a
// resync.
Pinned run(const std::string& trace_path) {
  Pinned out;
  {
    PimKdConfig cfg;
    cfg.dim = 2;
    cfg.leaf_cap = 8;
    cfg.sigma = 32;
    cfg.system.num_modules = 64;
    cfg.system.seed = 11;
    cfg.trace_path = trace_path;
    cfg.system.fault_spec = "lose@1:m3:400;lose@1:m40:700;crash@9:m21";
    const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 101});
    PimKdTree tree(cfg, pts);
    std::vector<PointId> live;
    for (PointId id = 0; id < pts.size(); ++id) live.push_back(id);
    for (unsigned b = 0; b < 6; ++b) {
      const auto extra = gen_uniform({.n = 250, .dim = 2, .seed = 200 + b});
      for (const PointId id : tree.insert(extra)) live.push_back(id);
      std::vector<PointId> victims;
      for (std::size_t j = b; j < live.size(); j += 9) victims.push_back(live[j]);
      tree.erase(victims);
      tree.knn(gen_uniform_queries(pts, 2, 32, 300 + b), 5);
      if (b == 3) tree.recover_all();  // also resyncs; later losses stay stale
    }
    out.snap = tree.system().metrics().snapshot();
    const pim::LoadReport loads = tree.system().metrics().load_report();
    out.work_hash = hash_words(loads.work);
    out.work_sum = sum(loads.work);
    out.comm_hash = hash_words(loads.comm);
    out.comm_sum = sum(loads.comm);
    out.storage = tree.system().metrics().total_storage();
    out.counter_updates = tree.op_stats().counter_updates;
    out.words_counters = tree.op_stats().words_counters;
    out.dropped = tree.system().faults()->dropped_words();
    out.stale_problems = tree.check_integrity().problems.size();
    out.stale_state_hash = durability::Checkpoint::hash(tree);
    tree.system().faults()->set_loss_permille(3, 0);
    tree.system().faults()->set_loss_permille(40, 0);
    out.resynced = tree.resync_counters();
    EXPECT_TRUE(tree.check_integrity().ok);
    out.after_resync = tree.system().metrics().snapshot();
  }
  const std::string trace = slurp(trace_path);
  out.trace_hash = fnv1a(kFnvBasis, trace.data(), trace.size());
  out.trace_bytes = trace.size();
  return out;
}

TEST(LedgerPin, LossyInsertEraseRunMatchesRecordedLedger) {
  const Pinned p = run(::testing::TempDir() + "pimkd_ledger_pin.jsonl");
  EXPECT_EQ(p.snap.cpu_work, 40894u);
  EXPECT_EQ(p.snap.pim_work, 605713u);
  EXPECT_EQ(p.snap.pim_time, 13152u);
  EXPECT_EQ(p.snap.communication, 637912u);
  EXPECT_EQ(p.snap.comm_time, 18779u);
  EXPECT_EQ(p.snap.rounds, 22u);
  EXPECT_EQ(p.work_hash, 14786426614638651812u);
  EXPECT_EQ(p.work_sum, 605713u);
  EXPECT_EQ(p.comm_hash, 814297859518568115u);
  EXPECT_EQ(p.comm_sum, 637912u);
  EXPECT_EQ(p.storage, 81828u);
  EXPECT_EQ(p.counter_updates, 6904u);
  EXPECT_EQ(p.words_counters, 83226u);
  EXPECT_EQ(p.dropped, 1474u);
  EXPECT_EQ(p.stale_problems, 20u);
  EXPECT_EQ(p.stale_state_hash, 7337148678496205826u);
  EXPECT_EQ(p.resynced, 20u);
  EXPECT_EQ(p.after_resync.communication, 637932u);
  EXPECT_EQ(p.after_resync.pim_work, 605733u);
  EXPECT_EQ(p.after_resync.rounds, 23u);
  EXPECT_EQ(p.trace_hash, 15381143804395363280u);
  EXPECT_EQ(p.trace_bytes, 8123u);
}

}  // namespace
}  // namespace pimkd::core
