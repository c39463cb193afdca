// Stale replica counters under message loss. A replica counter equals the
// canonical NodeRec::counter unless a counter word to it was dropped; only
// those exceptions are stored (ModuleState::stale_counters). These tests pin
// the lifecycle of an exception: who creates it, what reads it, what charges
// its repair, and every event that clears it — plus its checkpoint round
// trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "util/generators.hpp"

namespace pimkd::core {
namespace {

// A bare DistStore over one node, for driving copies and broadcasts by hand.
struct Rig {
  explicit Rig(const std::string& faults, std::size_t P = 4) {
    cfg.dim = 2;
    cfg.system.num_modules = P;
    cfg.system.fault_spec = faults;
    sys = std::make_unique<pim::PimSystem<ModuleState>>(cfg.system);
    store = std::make_unique<DistStore>(cfg, *sys, pool);
    id = pool.create();
    pool.at(id).counter = 5;
    pim::RoundGuard r(sys->metrics());  // round 0 arms the loss events
  }
  // Bumps the canonical counter by one and broadcasts it in its own round.
  std::uint64_t bump() {
    pim::RoundGuard r(sys->metrics());
    const double before = pool.at(id).counter;
    pool.at(id).counter += 1;
    return store->broadcast_counter(id, before);
  }
  std::size_t stale_on(std::size_t m) const {
    return sys->module(m).stale_counters.size();
  }

  PimKdConfig cfg;
  std::unique_ptr<pim::PimSystem<ModuleState>> sys;
  NodePool pool;
  std::unique_ptr<DistStore> store;
  NodeId id = kNoNode;
};

void add_copies(Rig& rig, std::initializer_list<std::size_t> mods) {
  pim::RoundGuard r(rig.sys->metrics());
  for (const std::size_t m : mods) rig.store->add_copy(rig.id, m);
}

TEST(StaleCounters, OnlyDroppedReplicasGoStale) {
  Rig rig("lose@0:m1:1000");
  add_copies(rig, {0, 1, 2});
  EXPECT_EQ(rig.bump(), 3 * kCounterWords);  // every word is charged
  EXPECT_EQ(rig.store->replica_counter(0, rig.id), 6);
  EXPECT_EQ(rig.store->replica_counter(1, rig.id), 5);  // kept its old value
  EXPECT_EQ(rig.store->replica_counter(2, rig.id), 6);
  EXPECT_EQ(rig.stale_on(0) + rig.stale_on(2), 0u);
  // A second loss keeps the value from before the first one.
  rig.bump();
  EXPECT_EQ(rig.store->replica_counter(1, rig.id), 5);
  EXPECT_EQ(rig.stale_on(1), 1u);
  // Once the loss stops, the next write settles the replica.
  rig.sys->faults()->set_loss_permille(1, 0);
  rig.bump();
  EXPECT_EQ(rig.store->replica_counter(1, rig.id), 8);
  EXPECT_EQ(rig.stale_on(1), 0u);
}

TEST(StaleCounters, SecondRefThatGetsThroughSettlesTheReplica) {
  // Two refs on m1 mean two counter words per broadcast; the replica is
  // stale iff both were dropped.
  Rig rig("lose@0:m1:500");
  add_copies(rig, {1, 1});
  int both = 0, some = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t d0 = rig.sys->faults()->dropped_words();
    rig.bump();
    const std::uint64_t dropped = rig.sys->faults()->dropped_words() - d0;
    const double canon = rig.pool.at(rig.id).counter;
    if (dropped == 2) {
      ++both;
      EXPECT_LT(rig.store->replica_counter(1, rig.id), canon) << i;
      EXPECT_EQ(rig.stale_on(1), 1u) << i;
    } else {
      ++some;
      EXPECT_EQ(rig.store->replica_counter(1, rig.id), canon) << i;
      EXPECT_EQ(rig.stale_on(1), 0u) << i;
    }
  }
  EXPECT_GT(both, 0);
  EXPECT_GT(some, 0);
}

TEST(StaleCounters, AddCopyClearsTheEntry) {
  Rig rig("lose@0:m1:1000");
  add_copies(rig, {0, 1});
  rig.bump();
  ASSERT_EQ(rig.stale_on(1), 1u);
  add_copies(rig, {1});  // the shipped record carries the canonical counter
  EXPECT_EQ(rig.stale_on(1), 0u);
  EXPECT_EQ(rig.store->replica_counter(1, rig.id), 6);
}

TEST(StaleCounters, LastRefDroppingClearsTheEntry) {
  Rig rig("lose@0:m1:1000");
  add_copies(rig, {0, 1, 1});
  rig.bump();
  ASSERT_EQ(rig.stale_on(1), 1u);
  rig.store->remove_one_copy(rig.id, 1);
  EXPECT_EQ(rig.stale_on(1), 1u);  // one ref left: still the stale replica
  rig.store->remove_one_copy(rig.id, 1);
  EXPECT_EQ(rig.stale_on(1), 0u);
  EXPECT_FALSE(rig.store->module_has(1, rig.id));
  // remove_all_copies frees the last ref the same way.
  add_copies(rig, {1});
  rig.bump();
  ASSERT_EQ(rig.stale_on(1), 1u);
  rig.store->remove_all_copies(rig.id);
  EXPECT_EQ(rig.stale_on(1), 0u);
}

TEST(StaleCounters, CrashWipesAndRebuildLeavesNoEntry) {
  Rig rig("lose@0:m1:1000");
  add_copies(rig, {0, 1});
  rig.bump();
  ASSERT_EQ(rig.stale_on(1), 1u);
  rig.sys->crash_module(1);
  EXPECT_EQ(rig.stale_on(1), 0u);
  rig.sys->revive_module(1);
  {
    pim::RoundGuard r(rig.sys->metrics());
    EXPECT_EQ(rig.store->rebuild_module(1).copies, 1u);
  }
  EXPECT_EQ(rig.stale_on(1), 0u);
  EXPECT_EQ(rig.store->replica_counter(1, rig.id), 6);
}

TEST(StaleCounters, ResyncFixesExactlyTheStaleReplicasOneWordEach) {
  Rig rig("lose@0:m1:1000;lose@0:m3:1000");
  add_copies(rig, {0, 1, 2, 3});
  rig.bump();
  ASSERT_EQ(rig.stale_on(1) + rig.stale_on(3), 2u);
  // A lost write of an unchanged value leaves an entry equal to the canonical
  // counter: nothing to repair, so no word is charged for it.
  const NodeId same = rig.pool.create();
  rig.pool.at(same).counter = 2;
  {
    pim::RoundGuard r(rig.sys->metrics());
    rig.store->add_copy(same, 1);
    rig.store->broadcast_counter(same, 2);
  }
  ASSERT_EQ(rig.stale_on(1), 2u);
  const pim::Snapshot before = rig.sys->metrics().snapshot();
  std::uint64_t fixed = 0;
  {
    pim::RoundGuard r(rig.sys->metrics());
    fixed = rig.store->resync_counters();
  }
  const pim::Snapshot d = rig.sys->metrics().snapshot() - before;
  EXPECT_EQ(fixed, 2u);
  EXPECT_EQ(d.communication, 2 * kCounterWords);
  EXPECT_EQ(d.pim_work, 2u);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(rig.stale_on(m), 0u) << m;
    EXPECT_EQ(rig.store->replica_counter(m, rig.id), 6) << m;
  }
}

// --- Whole-tree lifecycle ------------------------------------------------------

PimKdConfig lossy_cfg() {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 32;
  cfg.system.num_modules = 16;
  cfg.system.seed = 3;
  cfg.system.fault_spec = "lose@1:m2:100;lose@1:m9:100";
  return cfg;
}

std::unique_ptr<PimKdTree> lossy_tree() {
  const auto pts = gen_uniform({.n = 2000, .dim = 2, .seed = 17});
  auto tree = std::make_unique<PimKdTree>(lossy_cfg(), pts);
  tree->insert(gen_uniform({.n = 120, .dim = 2, .seed = 18}));
  std::vector<PointId> victims;
  for (PointId id = 0; id < 2000; id += 23) victims.push_back(id);
  tree->erase(victims);
  return tree;
}

// (module, node) -> replica value, for every replica that disagrees with the
// canonical counter.
std::map<std::pair<std::size_t, NodeId>, double> stale_replicas(
    const PimKdTree& t) {
  std::map<std::pair<std::size_t, NodeId>, double> out;
  for (std::size_t m = 0; m < t.P(); ++m)
    for (const auto& [id, value] : t.system().module(m).stale_counters)
      if (value != t.pool().at(id).counter) out[{m, id}] = value;
  return out;
}

TEST(StaleCounters, IntegrityNamesExactlyTheStaleReplicas) {
  const auto tree = lossy_tree();
  const auto stale = stale_replicas(*tree);
  ASSERT_FALSE(stale.empty());
  ASSERT_LE(stale.size(), 32u);  // every problem fits the report
  for (std::size_t m = 0; m < tree->P(); ++m) {
    if (m == 2 || m == 9) continue;  // the lossy modules
    EXPECT_TRUE(tree->system().module(m).stale_counters.empty()) << m;
  }
  std::vector<std::string> want;
  for (const auto& [key, value] : stale) {
    want.push_back("node " + std::to_string(key.second) + " on m" +
                   std::to_string(key.first) + ": replica counter");
    EXPECT_EQ(tree->store().replica_counter(key.first, key.second), value);
  }
  const auto rep = tree->check_integrity();
  EXPECT_EQ(rep.problems.size(), stale.size()) << rep.to_string();
  for (const std::string& w : want) {
    EXPECT_TRUE(std::any_of(rep.problems.begin(), rep.problems.end(),
                            [&](const std::string& p) {
                              return p.rfind(w, 0) == 0;
                            }))
        << w;
  }

  tree->system().faults()->set_loss_permille(2, 0);
  tree->system().faults()->set_loss_permille(9, 0);
  const pim::Snapshot before = tree->system().metrics().snapshot();
  EXPECT_EQ(tree->resync_counters(), stale.size());
  const pim::Snapshot d = tree->system().metrics().snapshot() - before;
  EXPECT_EQ(d.communication, stale.size() * kCounterWords);
  EXPECT_TRUE(tree->check_integrity().ok);
  EXPECT_TRUE(stale_replicas(*tree).empty());
}

TEST(StaleCounters, CheckpointRoundTripReproducesTheStaleSet) {
  const auto tree = lossy_tree();
  const auto stale = stale_replicas(*tree);
  ASSERT_FALSE(stale.empty());
  const std::string path = ::testing::TempDir() + "pimkd_stale_counters.ckpt";
  durability::Checkpoint::Info info;
  ASSERT_TRUE(durability::Checkpoint::save(*tree, path, 0, &info).ok());
  std::unique_ptr<PimKdTree> back;
  ASSERT_TRUE(durability::Checkpoint::load(path, back).ok());
  EXPECT_EQ(stale_replicas(*back), stale);
  EXPECT_EQ(durability::Checkpoint::hash(*back), info.state_hash);
  EXPECT_EQ(durability::Checkpoint::hash(*back),
            durability::Checkpoint::hash(*tree));
  EXPECT_EQ(back->check_integrity().problems.size(),
            tree->check_integrity().problems.size());
}

}  // namespace
}  // namespace pimkd::core
