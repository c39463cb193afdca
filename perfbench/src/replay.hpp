// The traced run's second half: the served batches replayed straight into
// the layers (PimKdTree::query/insert/erase, durability::Manager::log_batch
// then sync, Router::query/insert/erase), each call inside a span, with the
// counts read at the same boundaries. Derives the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "served.hpp"
#include "workload.hpp"

namespace perfbench {

// Every per-layer metric, in print order, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Replays `st` batch by batch (same boundaries, same crash/recover points) on
// fresh instances, checks the replayed answers against `served.hashes` and —
// on single-tree workloads — the modeled ledger against the served run's,
// appending any difference to `problems`. `log` already holds the served
// run's serve.submit/serve.pump spans.
Metrics replay_layers(const Stream& st, const ServedResult& served,
                      const std::string& scratch, SpanLog& log,
                      std::vector<std::string>& problems);

}  // namespace perfbench
