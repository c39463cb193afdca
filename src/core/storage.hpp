// Distributed storage of the PIM-kd-tree (§3.1's replication strategies).
//
// Every tree node has one *master* copy on module h(id) plus cache copies:
//   * Group 0 nodes are replicated on all P modules,
//   * a Group j>=1 node d is copied onto h(a) for every ancestor a of d in
//     the same intra-group component (a's top-down cache), and
//   * a node a is copied onto h(d) for every component descendant d (d's
//     bottom-up ancestor chain),
// per the active CachingMode. Leaf payloads travel with leaf-node copies.
//
// DistStore physically stores copies in per-module maps (so per-module space
// and load are measurable and traversals can assert a node is really present
// where the algorithm claims), keeps a host-side registry of copy locations
// (so demolition and counter broadcast are exact), and charges Metrics for
// every word it ships.
//
// Replica counters are stored sparsely. A copy's counter equals the
// canonical NodeRec::counter unless a counter message to it was lost, so a
// module keeps only the exceptions: ModuleState::stale_counters maps a node
// to the value its replica held before the first dropped write. Every
// successful write to that copy, a fresh add_copy, the copy's last ref going
// away and a module rebuild erase the entry; a crash wipes the whole
// ModuleState and the entries with it. replica_counter() is the one reader.
//
// Fault model: the registry records *intent* (where copies should live); the
// per-module maps record physical truth. When a module is dead (crashed, see
// pim/fault.hpp), the orchestrator suppresses every message addressed to it —
// registry bookkeeping proceeds (so recovery knows what to restore) but no
// state is written, no words are charged and no storage moves. Lost counter
// messages (kMessageLoss) are charged (the word left the host) but not
// applied, leaving a stale entry for check_integrity to flag and
// resync_counters to repair. rebuild_module() restores a revived module's
// copies from surviving replicas, falling back to the host-side authoritative
// store when a node has no live replica.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/tree.hpp"
#include "pim/system.hpp"
#include "util/geometry.hpp"

namespace pimkd::durability {
class Checkpoint;
}

namespace pimkd::core {

struct Copy {
  std::uint32_t refs = 0; // same node cached on this module via several owners
};

struct ModuleState {
  std::unordered_map<NodeId, Copy> nodes;
  std::unordered_map<NodeId, std::vector<PointId>> leaf_points;
  // Replica counters that missed a write (message loss): id -> the value the
  // replica still holds. Absent ids hold the canonical NodeRec::counter.
  std::unordered_map<NodeId, double> stale_counters;
};

class DistStore {
 public:
  DistStore(const PimKdConfig& cfg, pim::PimSystem<ModuleState>& sys,
            NodePool& pool)
      : cfg_(cfg), sys_(sys), pool_(pool) {}

  // Master placement: the hash home h(id) unless a live migration has pinned
  // the node elsewhere (core/migration.cpp). Every caching rule, traversal,
  // recovery and checkpoint path routes through here, so a remap entry moves
  // the node's entire placement footprint consistently by construction.
  std::size_t master_of(NodeId id) const {
    if (!remap_.empty()) {
      const auto it = remap_.find(id);
      if (it != remap_.end()) return it->second;
    }
    return sys_.module_of(id);
  }

  // --- Placement overrides (live subtree migration) --------------------------
  // Pin `id`'s master to `module`; pinning back to the hash home clears the
  // entry so the empty-map fast path in master_of stays hot.
  void set_remap(NodeId id, std::size_t module) {
    if (module == sys_.module_of(id))
      remap_.erase(id);
    else
      remap_[id] = static_cast<std::uint32_t>(module);
  }
  void drop_remap(NodeId id) {
    if (!remap_.empty()) remap_.erase(id);
  }
  const std::unordered_map<NodeId, std::uint32_t>& remap() const {
    return remap_;
  }

  // --- Read-heat tracking (migration planner input) ---------------------------
  // Per-component hop counter, indexed by the component root's NodeId (dense,
  // never reused). Commutative relaxed adds, so totals are thread-count
  // invariant; the capacity only changes at control points (epoch boundaries),
  // never while queries are in flight, so the bounds check below is race-free.
  void enable_heat(std::size_t capacity) {
    if (capacity <= heat_size_) return;
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i)
      grown[i].store(i < heat_size_
                         ? heat_[i].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
    heat_ = std::move(grown);
    heat_size_ = capacity;
  }
  bool heat_enabled() const { return heat_size_ != 0; }
  std::size_t heat_capacity() const { return heat_size_; }
  // Charged by Cursor on every off-component hop; a component root beyond the
  // tracked capacity (born since the last control point) is simply not
  // counted until the planner grows the array.
  void note_hop(NodeId comp_root) const {
    if (comp_root < heat_size_)
      heat_[comp_root].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t heat(NodeId comp_root) const {
    return comp_root < heat_size_
               ? heat_[comp_root].load(std::memory_order_relaxed)
               : 0;
  }

  // Adds one copy of `id` on `module`, shipping the node record (and the
  // leaf payload if `id` is a leaf) from the CPU: charges communication and
  // storage. Must be called inside a round.
  void add_copy(NodeId id, std::size_t module);

  // Removes every copy of `id` everywhere (node destroyed or component being
  // re-materialized). Frees storage; dropping data charges nothing.
  void remove_all_copies(NodeId id);

  // Removes exactly one copy of `id` from `module` (incremental component
  // maintenance when a node leaves a component). The copy must exist in the
  // registry; a missing entry throws PimError(kCorruptState) so callers (and
  // tests) can observe the damage instead of the process dying.
  void remove_one_copy(NodeId id, std::size_t module);

  // Is a copy of `id` present on `module`? (Traversal assertion hook.)
  bool module_has(std::size_t module, NodeId id) const;

  // --- Fault surface ---------------------------------------------------------
  bool module_alive(std::size_t m) const { return sys_.module_alive(m); }
  bool any_module_dead() const { return sys_.dead_module_count() != 0; }

  // Is at least one registered copy of `id` on an alive module? (Degraded
  // queries fall back to the host when not.)
  bool has_live_copy(NodeId id) const;

  // Re-ships every registered copy of (revived, empty) module `m` — node
  // records, counters, leaf payloads — preferring a surviving replica as the
  // source and falling back to the host point store. Charges communication to
  // both ends (or CPU work for host-sourced copies), module work and storage.
  struct RecoverySummary {
    std::uint64_t copies = 0;         // copy instances restored (with refs)
    std::uint64_t words = 0;          // words shipped to the module
    std::uint64_t from_replicas = 0;  // copies sourced from surviving replicas
    std::uint64_t from_host = 0;      // copies rebuilt from the host store
  };
  RecoverySummary rebuild_module(std::size_t m);

  // Rewrites every stale replica counter that disagrees with the canonical
  // mirror value (message-loss damage); charges one word per rewritten
  // replica. Returns the number of replicas fixed.
  std::uint64_t resync_counters();

  // The counter value the copy of `id` on `module` holds.
  double replica_counter(std::size_t module, NodeId id) const {
    const auto& stale = sys_.module(module).stale_counters;
    if (!stale.empty()) {
      const auto it = stale.find(id);
      if (it != stale.end()) return it->second;
    }
    return pool_.at(id).counter;
  }

  // Host-side fsck hook: fn(id, modules) for every registry entry.
  template <class Fn>
  void for_each_registered(Fn&& fn) const {
    for (const auto& [id, mods] : registry_) fn(id, mods);
  }

  // All modules currently holding a copy (with multiplicity; master first if
  // present). Used for counter broadcast cost accounting.
  const std::vector<std::uint32_t>& copy_modules(NodeId id) const;
  std::size_t copy_count(NodeId id) const;

  // Broadcasts the node's canonical counter value (just changed from
  // `before`) to every copy; charges one word of communication and one unit
  // of PIM work per copy written. Returns the words charged.
  std::uint64_t broadcast_counter(NodeId id, double before) {
    return write_counter_copies(id, true, before);
  }
  // Same write, but charged as module-local work only. Used for the in-group
  // ancestor chain updates of §3.3/Lemma 4.2: the message that reaches a
  // module carrying a copy of the lowest node lets its PIM core walk the
  // locally cached ancestor chain, so those updates cost PIM work, not
  // off-chip words.
  void sync_counter_local(NodeId id) { write_counter_copies(id, false, 0); }

  // Re-ships the leaf payload of `leaf` (already updated in the mirror) to
  // every module holding a copy; charges `words_changed` words per module.
  void refresh_leaf_payload(NodeId leaf, std::uint64_t words_changed);

  // Words currently attributed to stored state (matches Metrics storage).
  std::uint64_t node_storage_words(NodeId id) const;

 private:
  // Checkpointing (src/durability/checkpoint.cpp) serializes the registry —
  // the durable intent — directly and rehydrates physical module state from
  // it on load, charging storage (not communication: a restore is host-side
  // rehydration, not a PIM transfer).
  friend class pimkd::durability::Checkpoint;

  std::uint64_t copy_words(const NodeRec& rec) const;
  // Drops one ref of `id` on alive `module`; the last ref frees the copy, its
  // leaf payload and any stale counter. Releases the storage words.
  void release_copy(NodeId id, std::size_t module);
  std::uint64_t write_counter_copies(NodeId id, bool charge_comm,
                                     double before);

  const PimKdConfig& cfg_;
  pim::PimSystem<ModuleState>& sys_;
  NodePool& pool_;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> registry_;
  // Migration placement overrides: id -> pinned master module. Consulted by
  // master_of before the hash; empty in the common (no-migration) case.
  std::unordered_map<NodeId, std::uint32_t> remap_;
  // Read-heat counters (see note_hop). Mutable: charging heat from a const
  // traversal is bookkeeping, not logical mutation of the store.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> heat_;
  std::size_t heat_size_ = 0;
  std::vector<std::uint32_t> empty_;
};

}  // namespace pimkd::core
