#include "core/storage.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "pim/status.hpp"

namespace pimkd::core {

std::uint64_t DistStore::copy_words(const NodeRec& rec) const {
  (void)rec;
  return node_words(cfg_.dim);
}

namespace {
// Drops `id`'s stale replica counter on a module; the loss-free common case
// (no stale entries at all) costs no hash lookup.
void clear_stale(ModuleState& st, NodeId id) {
  if (!st.stale_counters.empty()) st.stale_counters.erase(id);
}
}  // namespace

void DistStore::add_copy(NodeId id, std::size_t module) {
  assert(sys_.metrics().in_round());
  // The registry records intent even for a dead module (recovery re-ships it);
  // the physical write and every charge are suppressed — the module is down
  // and the orchestrator knows it.
  registry_[id].push_back(static_cast<std::uint32_t>(module));
  if (!sys_.module_alive(module)) return;
  const NodeRec& rec = pool_.at(id);
  ModuleState& st = sys_.module(module);
  Copy& copy = st.nodes[id];
  ++copy.refs;
  clear_stale(st, id);  // the shipped record carries the canonical counter
  std::uint64_t words = copy_words(rec);
  if (rec.is_leaf() && copy.refs == 1) {
    const std::vector<PointId>& pts = pool_.cold(id).leaf_pts;
    st.leaf_points[id] = pts;
    words += static_cast<std::uint64_t>(pts.size()) * point_words(cfg_.dim);
  }
  sys_.metrics().add_comm(module, words);
  sys_.metrics().add_storage(module, static_cast<std::int64_t>(words));
}

void DistStore::release_copy(NodeId id, std::size_t module) {
  const NodeRec& rec = pool_.at(id);
  ModuleState& st = sys_.module(module);
  const auto cit = st.nodes.find(id);
  assert(cit != st.nodes.end() && cit->second.refs > 0);
  std::uint64_t words = copy_words(rec);
  if (--cit->second.refs == 0) {
    if (rec.is_leaf()) {
      const auto lit = st.leaf_points.find(id);
      if (lit != st.leaf_points.end()) {
        words += static_cast<std::uint64_t>(lit->second.size()) *
                 point_words(cfg_.dim);
        st.leaf_points.erase(lit);
      }
    }
    st.nodes.erase(cit);
    clear_stale(st, id);
  }
  sys_.metrics().add_storage(module, -static_cast<std::int64_t>(words));
}

void DistStore::remove_all_copies(NodeId id) {
  const auto it = registry_.find(id);
  if (it == registry_.end()) return;
  for (const std::uint32_t module : it->second)
    if (sys_.module_alive(module)) release_copy(id, module);  // dead: gone
  registry_.erase(it);
}

void DistStore::remove_one_copy(NodeId id, std::size_t module) {
  const auto rit = registry_.find(id);
  if (rit == registry_.end()) {
    std::ostringstream os;
    os << "DistStore::remove_one_copy: node " << id << " has no copies";
    throw PimError(StatusCode::kCorruptState, os.str());
  }
  auto& mods = rit->second;
  const auto pos =
      std::find(mods.begin(), mods.end(), static_cast<std::uint32_t>(module));
  if (pos == mods.end()) {
    std::ostringstream os;
    os << "DistStore::remove_one_copy: node " << id << " absent on module "
       << module << " (" << mods.size() << " copies elsewhere)";
    throw PimError(StatusCode::kCorruptState, os.str());
  }
  mods.erase(pos);
  if (sys_.module_alive(module)) release_copy(id, module);
  if (mods.empty()) registry_.erase(rit);
}

bool DistStore::module_has(std::size_t module, NodeId id) const {
  const ModuleState& st = sys_.module(module);
  return st.nodes.count(id) != 0;
}

bool DistStore::has_live_copy(NodeId id) const {
  for (const std::uint32_t m : copy_modules(id))
    if (sys_.module_alive(m)) return true;
  return false;
}

const std::vector<std::uint32_t>& DistStore::copy_modules(NodeId id) const {
  const auto it = registry_.find(id);
  return it == registry_.end() ? empty_ : it->second;
}

std::size_t DistStore::copy_count(NodeId id) const {
  return copy_modules(id).size();
}

std::uint64_t DistStore::write_counter_copies(NodeId id, bool charge_comm,
                                              double before) {
  assert(sys_.metrics().in_round());
  pim::FaultInjector* faults = sys_.faults();
  const std::vector<std::uint32_t>& mods = copy_modules(id);
  std::uint64_t words = 0;
  for (auto it = mods.begin(); it != mods.end(); ++it) {
    const std::uint32_t module = *it;
    if (!sys_.module_alive(module)) continue;  // send suppressed: module down
    ModuleState& st = sys_.module(module);
    if (charge_comm) {
      sys_.metrics().add_comm(module, kCounterWords);
      words += kCounterWords;
      // A lost message is charged (the word left the host) but never
      // applied: the replica keeps the value it held — `before`, unless an
      // earlier message of this broadcast (a second ref on the same module)
      // already settled it — until resync_counters repairs it.
      if (faults && faults->drop_counter_word(module)) {
        if (std::find(mods.begin(), it, module) == it)
          st.stale_counters.emplace(id, before);
        continue;
      }
    }
    clear_stale(st, id);
    sys_.metrics().add_module_work(module, 1);
  }
  return words;
}

void DistStore::refresh_leaf_payload(NodeId leaf, std::uint64_t words_changed) {
  assert(sys_.metrics().in_round());
  assert(pool_.at(leaf).is_leaf());
  const auto& mods = copy_modules(leaf);
  // Deduplicate modules: the payload is stored once per module.
  std::vector<std::uint32_t> uniq(mods.begin(), mods.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const std::uint32_t module : uniq) {
    if (!sys_.module_alive(module)) continue;  // send suppressed: module down
    ModuleState& st = sys_.module(module);
    auto& stored = st.leaf_points[leaf];
    const auto old_words = static_cast<std::int64_t>(stored.size()) *
                           static_cast<std::int64_t>(point_words(cfg_.dim));
    stored = pool_.cold(leaf).leaf_pts;
    const auto new_words = static_cast<std::int64_t>(stored.size()) *
                           static_cast<std::int64_t>(point_words(cfg_.dim));
    sys_.metrics().add_comm(module, words_changed);
    sys_.metrics().add_module_work(module, 1 + words_changed);
    sys_.metrics().add_storage(module, new_words - old_words);
  }
}

DistStore::RecoverySummary DistStore::rebuild_module(std::size_t m) {
  assert(sys_.metrics().in_round());
  assert(sys_.module_alive(m));
  RecoverySummary sum;
  ModuleState& st = sys_.module(m);
  for (const auto& [id, mods] : registry_) {
    const auto refs_here = static_cast<std::uint32_t>(
        std::count(mods.begin(), mods.end(), static_cast<std::uint32_t>(m)));
    if (refs_here == 0) continue;
    const NodeRec& rec = pool_.at(id);
    // Prefer a surviving replica as the source (Figure-2 dual-way caching
    // collocates copies widely); the host point store is the fallback of last
    // resort and always suffices — it is authoritative.
    std::size_t src = m;
    for (const std::uint32_t other : mods) {
      if (other != m && sys_.module_alive(other) && module_has(other, id)) {
        src = other;
        break;
      }
    }
    st.nodes[id].refs = refs_here;
    clear_stale(st, id);
    std::uint64_t words =
        static_cast<std::uint64_t>(refs_here) * copy_words(rec);
    if (rec.is_leaf()) {
      const std::vector<PointId>& pts = pool_.cold(id).leaf_pts;
      st.leaf_points[id] = pts;
      words += static_cast<std::uint64_t>(pts.size()) * point_words(cfg_.dim);
    }
    if (src != m) {
      sys_.metrics().add_comm(src, words);  // read side of the transfer
      sum.from_replicas += refs_here;
    } else {
      sys_.metrics().add_cpu_work(words);  // host reconstructs the copy
      sum.from_host += refs_here;
    }
    sys_.metrics().add_comm(m, words);
    sys_.metrics().add_module_work(m, refs_here);
    sys_.metrics().add_storage(m, static_cast<std::int64_t>(words));
    sum.copies += refs_here;
    sum.words += words;
  }
  return sum;
}

std::uint64_t DistStore::resync_counters() {
  assert(sys_.metrics().in_round());
  std::uint64_t fixed = 0;
  for (std::size_t module = 0; module < sys_.P(); ++module) {
    ModuleState& st = sys_.module(module);  // a dead module's set is wiped
    for (const auto& [id, value] : st.stale_counters) {
      if (value == pool_.at(id).counter) continue;
      sys_.metrics().add_comm(module, kCounterWords);
      sys_.metrics().add_module_work(module, 1);
      ++fixed;
    }
    st.stale_counters.clear();
  }
  return fixed;
}

std::uint64_t DistStore::node_storage_words(NodeId id) const {
  const auto it = registry_.find(id);
  if (it == registry_.end()) return 0;
  const NodeRec& rec = pool_.at(id);
  std::uint64_t words =
      static_cast<std::uint64_t>(it->second.size()) * node_words(cfg_.dim);
  if (rec.is_leaf()) {
    std::vector<std::uint32_t> uniq(it->second.begin(), it->second.end());
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    words += static_cast<std::uint64_t>(uniq.size()) *
             pool_.cold(id).leaf_pts.size() * point_words(cfg_.dim);
  }
  return words;
}

}  // namespace pimkd::core
