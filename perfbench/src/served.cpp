#include "served.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <iterator>
#include <system_error>
#include <utility>

#include "durability/checkpoint.hpp"
#include "durability/manager.hpp"
#include "oracle.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using pimkd::core::OpKind;

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  fs::remove_all(path_, ec);  // a leftover of a killed run
  fs::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

namespace {

// Reads compared with the brute-force scan per run (a seeded sample).
constexpr std::size_t kReadSamples = 400;
constexpr std::size_t kMaxProblemLines = 8;

void add_problem(ServedResult& out, std::string msg) {
  if (out.problems.size() < kMaxProblemLines)
    out.problems.push_back(std::move(msg));
  else if (out.problems.size() == kMaxProblemLines)
    out.problems.push_back("... further problems omitted");
}

// The closed-loop client: submits the stream back to back, pumps after every
// submit, and times each request from its submit to the return of the pump
// that resolved it (a batch runs synchronously inside the pump that fills
// it). The program's own Response ticks are never used for latency.
class Client {
 public:
  Client(const Stream& st, const ServeOptions& opt, ServedResult& out)
      : st_(st), opt_(opt), out_(out) {
    std::size_t reads = 0;
    for (const auto& op : st.ops) reads += !pimkd::core::is_update(op.kind);
    stride_ = std::max<std::size_t>(1, reads / kReadSamples);
    if (opt.spans) out.hashes.assign(st.ops.size(), 0);
  }

  template <class Server, class Boundary>
  void serve(Server& srv, Boundary&& at_batch) {
    const auto& ops = st_.ops;
    const std::size_t n = ops.size();
    const std::size_t b_size = st_.batch_size();
    std::vector<std::future<pimkd::serve::Response>> fut(b_size);
    std::vector<std::uint64_t> t_sub(b_size);
    out_.lat_ns.assign(n, 0);
    SpanLog* log = opt_.spans;
    std::uint16_t submit_name = 0, pump_name = 0;
    if (log) {
      submit_name = log->intern("serve.submit");
      pump_name = log->intern("serve.pump");
      log->reserve(log->size() + 2 * n);
    }
    std::size_t resolved = 0;
    std::vector<std::uint64_t> cycle_ns(st_.batches, 0), hook_ns(st_.batches, 0);
    const Usage u0 = Usage::now();
    const std::uint64_t t0 = now_ns();
    std::uint64_t last_end = t0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = static_cast<std::uint32_t>(i / b_size);
      if (i % b_size == 0) {
        note_rss();
        const std::uint64_t h0 = now_ns();
        at_batch(b);
        hook_ns[b] = now_ns() - h0;
      }
      const std::uint64_t ts = now_ns();
      fut[i % b_size] = srv.submit(st_.request(i), i);
      const std::uint64_t tp = now_ns();
      const std::size_t done = srv.pump(i);
      const std::uint64_t te = now_ns();
      t_sub[i % b_size] = ts;
      if (log) {
        log->add(Span{ts, tp, -1, b, submit_name});
        log->add(Span{tp, te, -1, b, pump_name});
      }
      if (done) {
        const std::size_t rb = resolved / b_size;  // one batch per pump
        cycle_ns[rb] = te - last_end - hook_ns[rb];
        last_end = te;
      }
      for (std::size_t j = resolved; j < resolved + done; ++j) {
        out_.lat_ns[j] = te - t_sub[j % b_size];
        on_response(j, fut[j % b_size].get());
      }
      resolved += done;
    }
    out_.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
    robust_serving_time(std::move(cycle_ns), hook_ns);
    note_rss();
    const Usage u1 = Usage::now();
    out_.usage.cpu_s = u1.cpu_s - u0.cpu_s;
    out_.usage.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    if (resolved != n)
      add_problem(out_, "stream ended with " + std::to_string(n - resolved) +
                            " requests unresolved");
  }

  void note_rss() { out_.peak_rss_mb = std::max(out_.peak_rss_mb, rss_mb()); }

  // serve_s: every batch counts at its own cycle (first submit to the pump
  // that resolves the batch), except the slowest 1% of each phase (healthy,
  // degraded, recovered), which count at that phase's 99th-percentile cycle.
  // The batch-boundary hooks (crash, recover_all) count in full. On a shared
  // host the hypervisor deschedules vCPUs in bursts that stall a few batches
  // for many times their cycle; the clip keeps those out of the figure.
  void robust_serving_time(std::vector<std::uint64_t> cycle_ns,
                           const std::vector<std::uint64_t>& hook_ns) {
    double total = 0;
    const std::size_t cuts[] = {0, st_.crash_batch, st_.recover_batch,
                                st_.batches};
    for (std::size_t p = 0; p + 1 < std::size(cuts); ++p) {
      if (cuts[p] >= cuts[p + 1]) continue;
      const auto lo = cycle_ns.begin() + static_cast<std::ptrdiff_t>(cuts[p]);
      const auto hi = cycle_ns.begin() + static_cast<std::ptrdiff_t>(cuts[p + 1]);
      const auto clip = lo + (hi - lo) * 99 / 100;
      std::nth_element(lo, clip, hi);
      for (auto it = lo; it != hi; ++it)
        total += static_cast<double>(std::min(*it, *clip));
    }
    for (const std::uint64_t h : hook_ns) total += static_cast<double>(h);
    out_.serve_s = 1e-9 * total;
  }

  // Replays the live set batch by batch and compares every sampled read with
  // the brute-force answer at the epoch the response reports. Returns the
  // model's final live count.
  std::size_t check_sampled_reads() {
    const std::size_t b_size = st_.batch_size();
    LiveModel model(st_.spec.dim, st_.initial);
    std::size_t k = 0;
    for (std::size_t b = 0; b < st_.batches; ++b) {
      const std::size_t begin = b * b_size, end = begin + b_size;
      for (; k < samples_.size() && samples_[k].first < end; ++k) {
        const auto& [i, resp] = samples_[k];
        if (resp.epoch != model.epoch())
          add_problem(out_, "request " + std::to_string(i) + ": read epoch " +
                                std::to_string(resp.epoch) + ", expected " +
                                std::to_string(model.epoch()));
        const pimkd::serve::Request q = st_.request(i);
        const std::string v = check_read(model, q, resp);
        if (!v.empty())
          add_problem(out_, "request " + std::to_string(i) + ": " + v);
        ++out_.checked_reads;
      }
      if (!model.apply_batch(st_, begin, end))
        add_problem(out_, "batch " + std::to_string(b) +
                              ": the stream erases an id the model holds dead");
    }
    return model.live();
  }

 private:
  void on_response(std::size_t i, pimkd::serve::Response r) {
    const auto& op = st_.ops[i];
    if (opt_.spans) out_.hashes[i] = response_hash(r);
    if (!r.ok()) {  // every workload is chosen so that none fails
      if (out_.failed++ == 0)
        add_problem(out_, "request " + std::to_string(i) + ": " + r.error);
      return;
    }
    if (pimkd::core::is_update(op.kind)) {
      const std::string v = check_update(op, r);
      if (!v.empty()) add_problem(out_, "request " + std::to_string(i) + ": " + v);
      return;
    }
    if (sampled(st_.spec.seed, i, stride_))
      samples_.emplace_back(i, std::move(r));
  }

  const Stream& st_;
  const ServeOptions& opt_;
  ServedResult& out_;
  std::size_t stride_ = 1;
  std::vector<std::pair<std::size_t, pimkd::serve::Response>> samples_;
};

void add_ledger(ServedResult& out, const pimkd::core::PimKdTree& t,
                const pimkd::pim::Snapshot& before,
                const pimkd::pim::LoadReport& load_before) {
  out.ledger = plus(out.ledger, t.metrics().snapshot() - before);
  const auto delta = t.metrics().load_report().delta_since(load_before);
  out.module_comm.insert(out.module_comm.end(), delta.comm.begin(),
                         delta.comm.end());
  out.storage_words += t.storage_words();
}

void check_tree(ServedResult& out, const pimkd::core::PimKdTree& t,
                const std::string& which) {
  if (!t.check_invariants())
    add_problem(out, which + ": check_invariants() failed");
  const auto integ = t.check_integrity();
  if (!integ.ok)
    add_problem(out, which + ": check_integrity() failed: " + integ.to_string());
}

void serve_tree(const Stream& st, const std::string& scratch, Client& client,
                ServedResult& out) {
  const WorkloadDef& def = *st.def;
  const std::uint64_t s0 = now_ns();
  std::unique_ptr<ScratchDir> wal;
  if (def.wal)
    wal = std::make_unique<ScratchDir>(scratch + "/wal-" + def.name + "-" +
                                       std::to_string(::getpid()));
  pimkd::core::PimKdTree tree(tree_config(def), st.initial);
  std::unique_ptr<pimkd::durability::Manager> mgr;
  if (wal) {
    pimkd::durability::ManagerConfig mc;
    mc.dir = wal->path();
    mc.sync = pimkd::durability::SyncPolicy::kEveryBatch;
    const pimkd::Status s = pimkd::durability::Manager::create(mc, tree, mgr);
    if (!s.ok()) {
      add_problem(out, "durability::Manager::create: " + s.message);
      return;
    }
  }
  out.setup_s = 1e-9 * static_cast<double>(now_ns() - s0);
  client.note_rss();

  pimkd::serve::SchedulerConfig sc;
  sc.policy = pimkd::serve::Policy::kFixedSize;
  sc.batch_size = sc.max_batch = def.batch;
  sc.record_batches = false;
  sc.durability = mgr.get();

  const pimkd::pim::Snapshot l0 = tree.metrics().snapshot();
  const pimkd::pim::LoadReport lr0 = tree.metrics().load_report();
  {
    pimkd::serve::BatchScheduler sched(tree, sc);
    client.serve(sched, [&](std::size_t b) {
      if (!def.crash) return;
      if (b == st.crash_batch) tree.crash_module(kCrashModule);
      if (b == st.recover_batch) (void)tree.recover_all();
    });
  }
  add_ledger(out, tree, l0, lr0);

  out.live_points = client.check_sampled_reads();
  if (out.live_points != tree.size())
    add_problem(out, "live count: initial + inserts - erases = " +
                         std::to_string(out.live_points) + ", tree size " +
                         std::to_string(tree.size()));
  check_tree(out, tree, "tree");

  if (mgr) {
    mgr.reset();  // closes the log
    pimkd::durability::RecoveryResult rec;
    const std::uint64_t r0 = now_ns();
    const pimkd::Status s =
        pimkd::durability::Manager::recover_from(wal->path(), rec);
    out.recover_from_s = 1e-9 * static_cast<double>(now_ns() - r0);
    if (!s.ok()) {
      add_problem(out, "Manager::recover_from: " + s.message);
    } else {
      out.frames_replayed = rec.frames_replayed;
      if (pimkd::durability::Checkpoint::hash(*rec.tree) !=
          pimkd::durability::Checkpoint::hash(tree))
        add_problem(out, "recovered tree's Checkpoint::hash differs from the "
                         "live tree's");
    }
  }
}

void serve_router(const Stream& st, Client& client, ServedResult& out) {
  const WorkloadDef& def = *st.def;
  const std::uint64_t s0 = now_ns();
  pimkd::router::Router router(router_config(def), st.initial);
  out.setup_s = 1e-9 * static_cast<double>(now_ns() - s0);
  client.note_rss();

  pimkd::router::FrontendConfig fc;
  fc.policy = pimkd::serve::Policy::kFixedSize;
  fc.batch_size = fc.max_batch = def.batch;
  fc.record_batches = false;

  std::vector<pimkd::pim::Snapshot> l0;
  std::vector<pimkd::pim::LoadReport> lr0;
  for (std::size_t s = 0; s < router.shards(); ++s) {
    l0.push_back(router.shard_tree(s).metrics().snapshot());
    lr0.push_back(router.shard_tree(s).metrics().load_report());
  }
  {
    pimkd::router::Frontend fe(router, fc);
    client.serve(fe, [](std::size_t) {});
    out.frontend = fe.stats();
  }
  std::size_t shard_sum = 0;
  for (std::size_t s = 0; s < router.shards(); ++s) {
    add_ledger(out, router.shard_tree(s), l0[s], lr0[s]);
    shard_sum += router.shard_tree(s).size();
    check_tree(out, router.shard_tree(s), "shard " + std::to_string(s));
  }
  out.live_points = client.check_sampled_reads();
  if (out.live_points != router.size() || out.live_points != shard_sum)
    add_problem(out, "live count: initial + inserts - erases = " +
                         std::to_string(out.live_points) + ", router size " +
                         std::to_string(router.size()) + ", shard sum " +
                         std::to_string(shard_sum));
}

}  // namespace

pimkd::pim::Snapshot plus(const pimkd::pim::Snapshot& a,
                          const pimkd::pim::Snapshot& b) {
  return {a.cpu_work + b.cpu_work,           a.pim_work + b.pim_work,
          a.pim_time + b.pim_time,           a.communication + b.communication,
          a.comm_time + b.comm_time,         a.rounds + b.rounds};
}

ServedResult run_served(const Stream& st, const ServeOptions& opt) {
  ServedResult out;
  out.attempted = st.ops.size();
  Client client(st, opt, out);
  if (st.def->shards == 0)
    serve_tree(st, opt.scratch, client, out);
  else
    serve_router(st, client, out);
  return out;
}

}  // namespace perfbench
