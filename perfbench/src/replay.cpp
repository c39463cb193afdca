#include "replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <unordered_set>

#include "core/pim_kdtree.hpp"
#include "durability/manager.hpp"
#include "oracle.hpp"
#include "router/router.hpp"
#include "serve/request.hpp"

namespace perfbench {

using pimkd::Point;
using pimkd::PointId;
using pimkd::core::OpKind;
using pimkd::pim::Snapshot;

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"serve.submit_us_per_op", "us"},
      {"serve.pump_ms_per_batch", "ms"},
      {"serve.self_us_per_op", "us"},
      {"core.build_s", "s"},
      {"core.knn_us_per_query", "us"},
      {"core.range_us_per_query", "us"},
      {"core.radius_us_per_query", "us"},
      {"core.insert_us_per_point", "us"},
      {"core.erase_us_per_point", "us"},
      {"core.rebuild_points_per_update", "points/update"},
      {"core.degraded_read_us_per_query", "us"},
      {"core.degraded_subtrees", "count"},
      {"core.recover_all_s", "s"},
      {"pim.comm_words_per_knn", "words/query"},
      {"pim.comm_words_per_range", "words/query"},
      {"pim.comm_words_per_radius", "words/query"},
      {"pim.comm_words_per_insert", "words/point"},
      {"pim.comm_words_per_erase", "words/point"},
      {"pim.comm_time_per_batch", "words/batch"},
      {"pim.rounds_per_batch", "rounds/batch"},
      {"pim.comm_imbalance", "max/mean"},
      {"pim.storage_words", "words"},
      {"durability.append_us_per_batch", "us"},
      {"durability.sync_us_per_batch", "us"},
      {"durability.wal_bytes_per_update", "bytes/update"},
      {"durability.recover_from_s", "s"},
      {"durability.frames_replayed", "count"},
      {"router.query_us_per_read", "us"},
      {"router.update_us_per_op", "us"},
      {"router.frontend_self_us_per_op", "us"},
      {"router.shards_per_read", "shards/read"},
      {"router.knn_second_phase_per_knn", "ratio"},
      {"parallel.cpu_util", "cpu_s/wall_s"},
      {"parallel.ctx_switches_per_batch", "count/batch"},
  };
  return list;
}

namespace {

constexpr std::array<OpKind, 4> kReadKinds = {
    OpKind::kKnn, OpKind::kRange, OpKind::kRadius, OpKind::kRadiusCount};

// The two replay targets share one shape so a single loop drives both.
struct TreeTarget {
  pimkd::core::PimKdTree& t;
  std::string layer = "core";
  std::vector<pimkd::core::Response> query(
      std::span<const pimkd::core::Request> q) {
    return t.query(q);
  }
  std::vector<PointId> insert(std::span<const Point> p) { return t.insert(p); }
  void erase(std::span<const PointId> ids) { t.erase(ids); }
  bool is_live(PointId id) const { return t.is_live(id); }
  std::uint64_t next_id() const { return t.next_point_id(); }
  Snapshot ledger() const { return t.metrics().snapshot(); }
  std::uint64_t rebuild_points() const { return t.op_stats().rebuild_points; }
};

struct RouterTarget {
  pimkd::router::Router& r;
  std::string layer = "router";
  std::vector<pimkd::core::Response> query(
      std::span<const pimkd::core::Request> q) {
    return r.query(q);
  }
  std::vector<PointId> insert(std::span<const Point> p) { return r.insert(p); }
  void erase(std::span<const PointId> ids) { r.erase(ids); }
  bool is_live(PointId id) const { return r.is_live(id); }
  std::uint64_t next_id() const { return r.next_point_id(); }
  Snapshot ledger() const {
    Snapshot s;
    for (std::size_t i = 0; i < r.shards(); ++i)
      s = plus(s, r.shard_tree(i).metrics().snapshot());
    return s;
  }
  std::uint64_t rebuild_points() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < r.shards(); ++i)
      n += r.shard_tree(i).op_stats().rebuild_points;
    return n;
  }
};

// Per-kind counts and modeled words, indexed by OpKind.
struct Tally {
  std::array<std::uint64_t, 6> ops{};
  std::array<std::uint64_t, 6> words{};
  std::uint64_t wal_frames = 0;
  std::size_t mismatches = 0;
  std::size_t first_mismatch = 0;
};

std::string query_span(const std::string& layer, OpKind k) {
  return layer == "core" ? "core." + std::string(pimkd::core::op_name(k))
                         : "router.query." + std::string(pimkd::core::op_name(k));
}

template <class Target, class Boundary>
void replay_batches(const Stream& st, const ServedResult& served, Target& tgt,
                    pimkd::durability::Manager* wal, SpanLog& log, Tally& tally,
                    Boundary&& at_batch) {
  const auto& ops = st.ops;
  const std::size_t b_size = st.batch_size();
  const std::uint16_t n_batch = log.intern("replay.batch");
  std::array<std::uint16_t, 6> n_kind{};
  for (OpKind k : kReadKinds)
    n_kind[static_cast<int>(k)] = log.intern(query_span(tgt.layer, k));
  n_kind[static_cast<int>(OpKind::kInsert)] = log.intern(tgt.layer + ".insert");
  n_kind[static_cast<int>(OpKind::kErase)] = log.intern(tgt.layer + ".erase");
  const std::uint16_t n_append = log.intern("durability.append");
  const std::uint16_t n_sync = log.intern("durability.sync");

  const auto compare = [&](std::size_t i, const pimkd::core::Response& r) {
    if (response_hash(r) == served.hashes[i]) return;
    if (tally.mismatches++ == 0) tally.first_mismatch = i;
  };
  const auto charge = [&](OpKind k, std::size_t n, const Snapshot& before) {
    tally.ops[static_cast<int>(k)] += n;
    tally.words[static_cast<int>(k)] += (tgt.ledger() - before).communication;
  };

  for (std::size_t b = 0; b < st.batches; ++b) {
    at_batch(b);
    const auto bid = static_cast<std::uint32_t>(b);
    const Scope batch(log, n_batch, bid);
    const std::size_t begin = b * b_size, end = begin + b_size;

    // Reads first, one call per kind in the canonical group order
    // (PimKdTree::query adds no charges of its own, so the ledger matches
    // the served run's single mixed call).
    for (OpKind k : kReadKinds) {
      std::vector<pimkd::core::Request> reqs;
      std::vector<std::size_t> idx;
      for (std::size_t i = begin; i < end; ++i)
        if (ops[i].kind == k) {
          reqs.push_back(st.request(i));
          idx.push_back(i);
        }
      if (reqs.empty()) continue;
      const Snapshot before = tgt.ledger();
      std::vector<pimkd::core::Response> resp;
      {
        const Scope s(log, n_kind[static_cast<int>(k)], bid, batch.id());
        resp = tgt.query(reqs);
      }
      charge(k, reqs.size(), before);
      for (std::size_t j = 0; j < idx.size(); ++j) compare(idx[j], resp[j]);
    }

    // Then every insert, then every erase (the serving layer's order).
    std::vector<Point> pts;
    std::vector<std::size_t> ins_idx;
    std::vector<PointId> del_ids;
    std::vector<std::size_t> del_idx;
    for (std::size_t i = begin; i < end; ++i) {
      if (ops[i].kind == OpKind::kInsert) {
        pts.push_back(st.point(ops[i]));
        ins_idx.push_back(i);
      } else if (ops[i].kind == OpKind::kErase) {
        del_ids.push_back(ops[i].id);
        del_idx.push_back(i);
      }
    }
    const std::uint64_t base = tgt.next_id();
    if (!pts.empty()) {
      const Snapshot before = tgt.ledger();
      std::vector<PointId> ids;
      {
        const Scope s(log, n_kind[static_cast<int>(OpKind::kInsert)], bid,
                      batch.id());
        ids = tgt.insert(pts);
      }
      charge(OpKind::kInsert, pts.size(), before);
      for (std::size_t j = 0; j < ins_idx.size(); ++j) {
        pimkd::core::Response r;
        r.kind = OpKind::kInsert;
        r.inserted_id = ids[j];
        compare(ins_idx[j], r);
      }
    }
    std::vector<PointId> erased;
    if (!del_ids.empty()) {
      std::unordered_set<PointId> claimed;
      std::vector<char> verdict(del_ids.size());
      for (std::size_t j = 0; j < del_ids.size(); ++j) {
        verdict[j] = tgt.is_live(del_ids[j]) && claimed.insert(del_ids[j]).second;
        if (verdict[j]) erased.push_back(del_ids[j]);
      }
      const Snapshot before = tgt.ledger();
      {
        const Scope s(log, n_kind[static_cast<int>(OpKind::kErase)], bid,
                      batch.id());
        tgt.erase(del_ids);
      }
      charge(OpKind::kErase, del_ids.size(), before);
      for (std::size_t j = 0; j < del_idx.size(); ++j) {
        pimkd::core::Response r;
        r.kind = OpKind::kErase;
        r.erased = verdict[j] != 0;
        compare(del_idx[j], r);
      }
    }
    if (wal && (!pts.empty() || !erased.empty())) {
      if constexpr (std::is_same_v<Target, TreeTarget>) {
        pimkd::Status s;
        {
          const Scope a(log, n_append, bid, batch.id());
          s = wal->log_batch(tgt.t.mutation_epoch(), base, std::move(pts),
                             std::move(erased));
        }
        if (s.ok()) {
          const Scope y(log, n_sync, bid, batch.id());
          s = wal->sync();
        }
        if (!s.ok()) throw std::runtime_error("replay WAL: " + s.message);
        ++tally.wal_frames;
      }
    }
  }
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Metrics replay_layers(const Stream& st, const ServedResult& served,
                      const std::string& scratch, SpanLog& log,
                      std::vector<std::string>& problems) {
  const WorkloadDef& def = *st.def;
  const auto& ops = st.ops;
  const double n_req = static_cast<double>(ops.size());
  const double n_batches = static_cast<double>(st.batches);
  Tally tally;
  Snapshot ledger;
  std::uint64_t rebuild_points = 0, degraded_subtrees = 0, wal_bytes = 0;

  if (def.shards == 0) {
    std::unique_ptr<pimkd::core::PimKdTree> tree;
    {
      const Scope s(log, log.intern("core.build"), 0);
      tree = std::make_unique<pimkd::core::PimKdTree>(tree_config(def),
                                                      st.initial);
    }
    std::unique_ptr<ScratchDir> dir;
    std::unique_ptr<pimkd::durability::Manager> wal;
    if (def.wal) {
      // No-sync policy plus an explicit sync() per batch, so the append and
      // the fdatasync land in separate spans.
      dir = std::make_unique<ScratchDir>(scratch + "/wal-replay-" + def.name +
                                         "-" + std::to_string(::getpid()));
      pimkd::durability::ManagerConfig mc;
      mc.dir = dir->path();
      mc.sync = pimkd::durability::SyncPolicy::kNone;
      const pimkd::Status s = pimkd::durability::Manager::create(mc, *tree, wal);
      if (!s.ok()) throw std::runtime_error("replay WAL: " + s.message);
    }
    const Snapshot l0 = tree->metrics().snapshot();
    const std::uint64_t rb0 = tree->op_stats().rebuild_points;
    const std::uint64_t dg0 = tree->degraded_stats().host_fallback_subtrees;
    TreeTarget tgt{*tree};
    const std::uint16_t n_recover = log.intern("core.recover_all");
    replay_batches(st, served, tgt, wal.get(), log, tally, [&](std::size_t b) {
      if (!def.crash) return;
      if (b == st.crash_batch) tree->crash_module(kCrashModule);
      if (b == st.recover_batch) {
        const Scope s(log, n_recover, static_cast<std::uint32_t>(b));
        (void)tree->recover_all();
      }
    });
    ledger = tree->metrics().snapshot() - l0;
    rebuild_points = tree->op_stats().rebuild_points - rb0;
    degraded_subtrees = tree->degraded_stats().host_fallback_subtrees - dg0;
    if (wal) wal_bytes = wal->stats().wal_bytes;
    if (ledger.to_string() != served.ledger.to_string())
      problems.push_back("replayed ledger " + ledger.to_string() +
                         " differs from the served run's " +
                         served.ledger.to_string());
    if (tree->storage_words() != served.storage_words)
      problems.push_back("replayed storage differs from the served run's");
  } else {
    std::unique_ptr<pimkd::router::Router> router;
    {
      const Scope s(log, log.intern("router.build"), 0);
      router = std::make_unique<pimkd::router::Router>(router_config(def),
                                                       st.initial);
    }
    RouterTarget tgt{*router};
    const Snapshot l0 = tgt.ledger();
    const std::uint64_t rb0 = tgt.rebuild_points();
    replay_batches(st, served, tgt, nullptr, log, tally, [](std::size_t) {});
    ledger = tgt.ledger() - l0;
    rebuild_points = tgt.rebuild_points() - rb0;
  }
  if (tally.mismatches)
    problems.push_back(std::to_string(tally.mismatches) +
                       " replayed answers differ from the served ones (first: "
                       "request " + std::to_string(tally.first_mismatch) + ")");

  // --- Derive the per-layer metrics. ---------------------------------------
  const auto ops_of = [&](OpKind k) {
    return static_cast<double>(tally.ops[static_cast<int>(k)]);
  };
  const auto us = [](std::uint64_t ns) { return 1e-3 * static_cast<double>(ns); };
  const std::string layer = def.shards == 0 ? "core" : "router";
  const auto q_ns = [&](OpKind k) { return log.total_ns(query_span(layer, k)); };
  const double reads = ops_of(OpKind::kKnn) + ops_of(OpKind::kRange) +
                       ops_of(OpKind::kRadius) + ops_of(OpKind::kRadiusCount);
  const double updates = ops_of(OpKind::kInsert) + ops_of(OpKind::kErase);
  const std::uint64_t children =
      log.total_ns("replay.batch") - log.self_ns("replay.batch");
  const double pump_ns = static_cast<double>(log.total_ns("serve.pump"));
  const double self_us = per(1e-3 * (pump_ns - static_cast<double>(children)), n_req);

  double degraded_ns = 0, degraded_reads = 0;
  if (def.crash) {
    const auto lo = static_cast<std::uint32_t>(st.crash_batch);
    const auto hi = static_cast<std::uint32_t>(st.recover_batch);
    for (OpKind k : kReadKinds)
      degraded_ns += static_cast<double>(log.total_ns(query_span(layer, k), lo, hi));
    for (std::size_t i = lo * st.batch_size(); i < hi * st.batch_size(); ++i)
      degraded_reads += !pimkd::core::is_update(ops[i].kind);
  }

  std::uint64_t imax = 0, isum = 0;
  for (std::uint64_t w : served.module_comm) {
    imax = std::max(imax, w);
    isum += w;
  }
  const double imean = served.module_comm.empty()
                           ? 0.0
                           : static_cast<double>(isum) /
                                 static_cast<double>(served.module_comm.size());

  std::map<std::string, double> v;
  v["serve.submit_us_per_op"] = per(us(log.total_ns("serve.submit")), n_req);
  v["serve.pump_ms_per_batch"] = per(1e-6 * pump_ns, n_batches);
  v["serve.self_us_per_op"] = self_us;
  v["core.build_s"] =
      1e-9 * static_cast<double>(log.total_ns(layer + ".build"));
  v["core.knn_us_per_query"] = per(us(q_ns(OpKind::kKnn)), ops_of(OpKind::kKnn));
  v["core.range_us_per_query"] =
      per(us(q_ns(OpKind::kRange)), ops_of(OpKind::kRange));
  v["core.radius_us_per_query"] =
      per(us(q_ns(OpKind::kRadius)), ops_of(OpKind::kRadius));
  v["core.insert_us_per_point"] =
      per(us(log.total_ns(layer + ".insert")), ops_of(OpKind::kInsert));
  v["core.erase_us_per_point"] =
      per(us(log.total_ns(layer + ".erase")), ops_of(OpKind::kErase));
  v["core.rebuild_points_per_update"] =
      per(static_cast<double>(rebuild_points), updates);
  v["core.degraded_read_us_per_query"] = per(1e-3 * degraded_ns, degraded_reads);
  v["core.degraded_subtrees"] = static_cast<double>(degraded_subtrees);
  v["core.recover_all_s"] =
      1e-9 * static_cast<double>(log.total_ns("core.recover_all"));
  const auto words = [&](OpKind k) {
    return per(static_cast<double>(tally.words[static_cast<int>(k)]), ops_of(k));
  };
  v["pim.comm_words_per_knn"] = words(OpKind::kKnn);
  v["pim.comm_words_per_range"] = words(OpKind::kRange);
  v["pim.comm_words_per_radius"] = words(OpKind::kRadius);
  v["pim.comm_words_per_insert"] = words(OpKind::kInsert);
  v["pim.comm_words_per_erase"] = words(OpKind::kErase);
  v["pim.comm_time_per_batch"] = per(static_cast<double>(ledger.comm_time), n_batches);
  v["pim.rounds_per_batch"] = per(static_cast<double>(ledger.rounds), n_batches);
  v["pim.comm_imbalance"] = per(static_cast<double>(imax), imean);
  v["pim.storage_words"] = static_cast<double>(served.storage_words);
  const double frames = static_cast<double>(tally.wal_frames);
  v["durability.append_us_per_batch"] =
      per(us(log.total_ns("durability.append")), frames);
  v["durability.sync_us_per_batch"] = per(us(log.total_ns("durability.sync")), frames);
  v["durability.wal_bytes_per_update"] =
      def.wal ? per(static_cast<double>(wal_bytes), updates) : 0.0;
  v["durability.recover_from_s"] = served.recover_from_s;
  v["durability.frames_replayed"] = static_cast<double>(served.frames_replayed);
  if (def.shards > 0) {
    std::uint64_t q_total = 0;
    for (OpKind k : kReadKinds) q_total += q_ns(k);
    v["router.query_us_per_read"] = per(us(q_total), reads);
    v["router.update_us_per_op"] =
        per(us(log.total_ns("router.insert") + log.total_ns("router.erase")), updates);
    v["router.frontend_self_us_per_op"] = self_us;
    v["router.shards_per_read"] =
        per(static_cast<double>(served.frontend.shards.reads),
            static_cast<double>(served.frontend.reads));
    v["router.knn_second_phase_per_knn"] =
        per(static_cast<double>(served.frontend.knn_second_phase), ops_of(OpKind::kKnn));
  }
  v["parallel.cpu_util"] = per(served.usage.cpu_s, served.wall_s);
  v["parallel.ctx_switches_per_batch"] =
      per(static_cast<double>(served.usage.ctx_switches), n_batches);

  Metrics out;
  for (const auto& [name, unit] : per_layer_metrics())
    out[name] = Metric{v.count(name) ? v[name] : 0.0, unit};
  return out;
}

}  // namespace perfbench
