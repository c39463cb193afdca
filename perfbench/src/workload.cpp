#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>


namespace perfbench {

namespace {

using pimkd::serve::MixKind;
using pimkd::serve::WorkloadSpec;

std::vector<WorkloadDef> make_table() {
  std::vector<WorkloadDef> t;

  // Read-heavy YCSB-B mix with Zipf(0.99) hot keys: push-pull kNN descent,
  // the leaf-scan kernels and ledger charging do almost all the work.
  WorkloadDef read_zipf;
  read_zipf.name = "read_zipf";
  read_zipf.spec = pimkd::serve::mix_spec(MixKind::kReadHeavy);
  read_zipf.spec.zipf_theta = 0.99;
  read_zipf.spec.initial_points = 200000;
  read_zipf.batch = 256;
  // Below this workload's serving rate (~225k req/s on 4 cores) so the
  // traced run, which keeps two spans per request, stays near 0.5 GB.
  read_zipf.requests_per_second = 135000;
  t.push_back(read_zipf);

  // Half updates (inserts and erases equally), half reads over kNN, range
  // and radius report; uniform keys; every-batch fdatasync WAL; one module
  // down for the middle third of the stream.
  WorkloadDef churn;
  churn.name = "churn_durable";
  churn.spec = pimkd::serve::mix_spec(MixKind::kUpdateHeavy);
  churn.spec.f_knn = 1.0 / 6;
  churn.spec.f_range = 1.0 / 6;
  churn.spec.f_radius = 1.0 / 6;
  churn.spec.f_radius_count = 0;
  churn.spec.f_insert = 0.25;
  churn.spec.f_erase = 0.25;
  churn.spec.initial_points = 200000;
  churn.batch = 256;
  churn.wal = true;
  churn.crash = true;
  churn.requests_per_second = 34000;
  t.push_back(churn);

  // Scan-heavy YCSB-E mix over a 4-shard router: scatter/gather, fan-out,
  // two-phase kNN and the range/radius traversals.
  WorkloadDef scan;
  scan.name = "scan_sharded";
  scan.spec = pimkd::serve::mix_spec(MixKind::kScanHeavy);
  scan.spec.initial_points = 200000;
  scan.batch = 256;
  scan.shards = 4;
  scan.modules = 16;  // 4 x 16 = the 64 modules of the single-tree workloads
  scan.requests_per_second = 48000;
  t.push_back(scan);
  return t;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> table = make_table();
  return table;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workloads())
    if (d.name == name) return &d;
  return nullptr;
}

// Converts gen_serve_workload's ops (424 bytes each: a 16-dimension Point
// and Box inline) into 40-byte Ops as soon as they are drawn; the library's
// vector is freed before the tree is built.
void generate(const WorkloadSpec& spec, std::vector<pimkd::Point>& initial,
              std::vector<Op>& ops) {
  using pimkd::core::OpKind;
  if (spec.dim > kMaxDim)
    throw std::invalid_argument("perfbench: streams are compacted for dim <= 2");
  const int dim = spec.dim;
  pimkd::serve::ServeWorkload w = pimkd::serve::gen_serve_workload(spec);
  initial = std::move(w.initial);
  ops.clear();
  ops.reserve(w.ops.size());
  for (const pimkd::serve::WorkloadOp& g : w.ops) {
    Op op;
    op.kind = g.kind;
    op.id = g.id;
    for (int d = 0; d < dim; ++d) {
      if (g.kind == OpKind::kRange) {
        op.c[d] = g.box.lo[d];
        op.c[dim + d] = g.box.hi[d];
      } else {
        op.c[d] = g.point[d];
      }
    }
    ops.push_back(op);
  }
}

Stream make_stream(const WorkloadDef& def, std::uint64_t seed, int seconds) {
  Stream s;
  s.def = &def;
  const double want = def.requests_per_second * std::max(seconds, 1);
  s.batches = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(want / def.batch)));
  s.spec = def.spec;
  s.spec.seed = seed;
  s.spec.requests = s.batches * def.batch;
  generate(s.spec, s.initial, s.ops);
  s.crash_batch = def.crash ? s.batches / 3 : s.batches;
  s.recover_batch = def.crash ? 2 * s.batches / 3 : s.batches;
  return s;
}

pimkd::Point Stream::point(const Op& op) const {
  pimkd::Point p;
  for (int d = 0; d < spec.dim; ++d) p[d] = op.c[d];
  return p;
}

pimkd::serve::Request Stream::request(std::size_t i) const {
  using pimkd::core::OpKind;
  const Op& op = ops[i];
  switch (op.kind) {
    case OpKind::kInsert: return pimkd::serve::Request::insert(point(op));
    case OpKind::kErase: return pimkd::serve::Request::erase(op.id);
    case OpKind::kKnn:
      return pimkd::serve::Request::knn(point(op), spec.knn_k, spec.knn_eps);
    case OpKind::kRange: {
      pimkd::Box b = pimkd::Box::empty(spec.dim);
      for (int d = 0; d < spec.dim; ++d) {
        b.lo[d] = op.c[d];
        b.hi[d] = op.c[spec.dim + d];
      }
      return pimkd::serve::Request::range(b);
    }
    case OpKind::kRadius:
      return pimkd::serve::Request::radius_report(point(op), spec.radius);
    case OpKind::kRadiusCount:
      return pimkd::serve::Request::radius_count(point(op), spec.radius);
  }
  return pimkd::serve::Request::knn(point(op), spec.knn_k, spec.knn_eps);
}

pimkd::core::PimKdConfig tree_config(const WorkloadDef& def) {
  pimkd::core::PimKdConfig cfg;
  cfg.dim = def.spec.dim;
  cfg.system.num_modules = def.modules;
  return cfg;
}

pimkd::router::RouterConfig router_config(const WorkloadDef& def) {
  pimkd::router::RouterConfig rc;
  rc.shards = def.shards;
  rc.tree = tree_config(def);
  return rc;
}

}  // namespace perfbench
