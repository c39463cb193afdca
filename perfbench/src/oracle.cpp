#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/pim_kdtree.hpp"
#include "util/generators.hpp"

namespace perfbench {

using pimkd::Box;
using pimkd::Coord;
using pimkd::Neighbor;
using pimkd::Point;
using pimkd::PointId;
using pimkd::core::OpKind;

LiveModel::LiveModel(int dim, const std::vector<Point>& initial)
    : dim_(dim), coords_(initial), alive_(initial.size(), 1),
      live_(initial.size()) {}

bool LiveModel::apply_batch(const Stream& st, std::size_t begin,
                            std::size_t end) {
  const std::vector<Op>& ops = st.ops;
  bool ok = true, changed = false;
  for (std::size_t i = begin; i < end; ++i) {
    if (ops[i].kind != OpKind::kInsert) continue;
    coords_.push_back(st.point(ops[i]));
    alive_.push_back(1);
    ++live_;
    changed = true;
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (ops[i].kind != OpKind::kErase) continue;
    if (!is_live(ops[i].id)) {
      ok = false;
      continue;
    }
    alive_[ops[i].id] = 0;
    --live_;
    changed = true;
  }
  if (changed) ++epoch_;
  return ok;
}

double LiveModel::sq_dist(const Point& a, const Point& b) const {
  double s = 0;
  for (int d = 0; d < dim_; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

std::vector<Neighbor> LiveModel::knn(const Point& q, std::size_t k) const {
  const auto before = [](const Neighbor& a, const Neighbor& b) {
    return a.sq_dist != b.sq_dist ? a.sq_dist < b.sq_dist : a.id < b.id;
  };
  std::vector<Neighbor> best;  // max-heap on (sq_dist, id), size <= k
  if (k == 0) return best;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    if (!alive_[i]) continue;
    const Neighbor n{static_cast<PointId>(i), sq_dist(coords_[i], q)};
    if (best.size() < k) {
      best.push_back(n);
      std::push_heap(best.begin(), best.end(), before);
    } else if (before(n, best.front())) {
      std::pop_heap(best.begin(), best.end(), before);
      best.back() = n;
      std::push_heap(best.begin(), best.end(), before);
    }
  }
  std::sort_heap(best.begin(), best.end(), before);
  return best;
}

std::vector<PointId> LiveModel::range(const Box& b) const {
  std::vector<PointId> out;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    if (!alive_[i]) continue;
    bool in = true;
    for (int d = 0; d < dim_ && in; ++d)
      in = coords_[i][d] >= b.lo[d] && coords_[i][d] <= b.hi[d];
    if (in) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

std::vector<PointId> LiveModel::radius(const Point& c, Coord r) const {
  std::vector<PointId> out;
  const double r2 = r * r;
  for (std::size_t i = 0; i < coords_.size(); ++i)
    if (alive_[i] && sq_dist(coords_[i], c) <= r2)
      out.push_back(static_cast<PointId>(i));
  return out;
}

namespace {

std::string describe_ids(const char* what, const std::vector<PointId>& want,
                         const std::vector<PointId>& got) {
  char buf[160];
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  std::snprintf(buf, sizeof buf,
                "%s: %zu ids expected, %zu returned, first difference at %zu",
                what, want.size(), got.size(), i);
  return buf;
}

}  // namespace

std::string check_read(const LiveModel& m, const pimkd::core::Request& q,
                       const pimkd::core::Response& got) {
  if (!got.ok()) return "read failed: " + got.error;
  if (got.kind != q.kind) return "response kind differs from request";
  switch (q.kind) {
    case OpKind::kKnn: {
      const std::vector<Neighbor> want = m.knn(q.point, q.k);
      if (want.size() != got.neighbors.size())
        return "knn: wrong neighbour count";
      for (std::size_t i = 0; i < want.size(); ++i)
        if (want[i].id != got.neighbors[i].id ||
            want[i].sq_dist != got.neighbors[i].sq_dist) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "knn: neighbour %zu differs", i);
          return buf;
        }
      return "";
    }
    case OpKind::kRange: {
      const std::vector<PointId> want = m.range(q.box);
      return want == got.ids ? "" : describe_ids("range", want, got.ids);
    }
    case OpKind::kRadius: {
      const std::vector<PointId> want = m.radius(q.point, q.radius);
      return want == got.ids ? "" : describe_ids("radius", want, got.ids);
    }
    case OpKind::kRadiusCount: {
      const std::size_t want = m.radius(q.point, q.radius).size();
      return want == got.count ? "" : "radius_count: wrong count";
    }
    default:
      return "check_read called on an update";
  }
}

std::string check_update(const Op& op,
                         const pimkd::core::Response& got) {
  if (!got.ok()) return "update failed: " + got.error;
  if (op.kind == OpKind::kInsert && got.inserted_id != op.id)
    return "insert: assigned id differs from the stream's prediction";
  if (op.kind == OpKind::kErase && !got.erased)
    return "erase of a live id not reported as erased";
  return "";
}

std::uint64_t response_hash(const pimkd::core::Response& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  const auto kind = static_cast<std::uint8_t>(r.kind);
  mix(&kind, 1);
  mix(r.error.data(), r.error.size());
  mix(&r.inserted_id, sizeof r.inserted_id);
  const std::uint8_t erased = r.erased ? 1 : 0;
  mix(&erased, 1);
  for (const Neighbor& n : r.neighbors) {
    mix(&n.id, sizeof n.id);
    mix(&n.sq_dist, sizeof n.sq_dist);
  }
  mix(r.ids.data(), r.ids.size() * sizeof(PointId));
  const std::uint64_t count = r.count;
  mix(&count, sizeof count);
  return h;
}

bool sampled(std::uint64_t seed, std::size_t index, std::size_t stride) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + index;
  return pimkd::splitmix64(s) % stride == 0;
}

int run_selftest() {
  const int dim = 2;
  const std::vector<Point> pts =
      pimkd::gen_uniform({.n = 3000, .dim = dim, .seed = 7});
  pimkd::core::PimKdConfig cfg;
  cfg.dim = dim;
  cfg.system.num_modules = 8;
  pimkd::core::PimKdTree tree(cfg, pts);
  const LiveModel model(dim, pts);

  Point c;
  c[0] = 0.5;
  c[1] = 0.5;
  Box box = Box::empty(dim);
  box.lo[0] = box.lo[1] = 0.4;
  box.hi[0] = box.hi[1] = 0.6;
  const std::vector<pimkd::core::Request> reqs = {
      pimkd::core::Request::knn(c, 8), pimkd::core::Request::range(box),
      pimkd::core::Request::radius_report(c, 0.05),
      pimkd::core::Request::radius_count(c, 0.05)};
  const std::vector<pimkd::core::Response> real = tree.query(reqs);

  int bad = 0;
  const auto expect = [&bad](const char* name, const std::string& verdict,
                             bool should_pass) {
    const bool passed = verdict.empty();
    const bool ok = passed == should_pass;
    std::fprintf(stderr, "selftest %-28s %s (%s)\n", name,
                 ok ? "ok" : "WRONG",
                 passed ? "accepted" : verdict.c_str());
    if (!ok) ++bad;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect(pimkd::core::op_name(reqs[i].kind), check_read(model, reqs[i], real[i]),
           true);

  pimkd::core::Response swapped = real[0];  // neighbours 2 and 6 trade places
  std::swap(swapped.neighbors[2], swapped.neighbors[6]);
  expect("knn swapped neighbour", check_read(model, reqs[0], swapped), false);

  pimkd::core::Response foreign = real[0];  // a non-neighbour replaces one
  foreign.neighbors[3].id = model.knn(c, 20).back().id;
  expect("knn foreign neighbour", check_read(model, reqs[0], foreign), false);

  pimkd::core::Response dropped = real[1];
  dropped.ids.erase(dropped.ids.begin() + dropped.ids.size() / 2);
  expect("range dropped id", check_read(model, reqs[1], dropped), false);

  pimkd::core::Response extra = real[2];
  extra.ids.push_back(extra.ids.back() + 1);
  expect("radius extra id", check_read(model, reqs[2], extra), false);

  pimkd::core::Response count = real[3];
  count.count += 1;
  expect("radius_count wrong count", check_read(model, reqs[3], count), false);

  Op ins;
  ins.kind = OpKind::kInsert;
  ins.id = 3000;
  pimkd::core::Response ins_resp;
  ins_resp.kind = OpKind::kInsert;
  ins_resp.inserted_id = 3000;
  expect("insert predicted id", check_update(ins, ins_resp), true);
  ins_resp.inserted_id = 3001;
  expect("insert wrong id", check_update(ins, ins_resp), false);

  Op er;
  er.kind = OpKind::kErase;
  er.id = 12;
  pimkd::core::Response er_resp;
  er_resp.kind = OpKind::kErase;
  er_resp.erased = false;
  expect("erase not reported", check_update(er, er_resp), false);

  expect("hash sees a changed payload",
         response_hash(real[1]) != response_hash(dropped) ? "" : "equal", true);

  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
