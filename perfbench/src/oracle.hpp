// Answer checking, computed apart from the program.
//
// The brute-force scans here are written in the benchmark itself rather than
// taken from the library's kdtree/bruteforce, which shares the program's
// geometry code: a fault there would otherwise agree with itself. Squared
// distances are summed dimension by dimension in index order, the definition
// the library documents, so exact answers compare bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.hpp"
#include "workload.hpp"

namespace perfbench {

// The live set of points, replayed from the request stream batch by batch.
class LiveModel {
 public:
  LiveModel(int dim, const std::vector<pimkd::Point>& initial);

  int dim() const { return dim_; }
  std::size_t live() const { return live_; }
  std::uint64_t epoch() const { return epoch_; }
  bool is_live(pimkd::PointId id) const {
    return id < alive_.size() && alive_[id];
  }

  // Applies one batch's updates the way the serving layer does (every
  // insert, then every erase; the epoch advances iff something changed).
  // Returns false when an erase target was not live.
  bool apply_batch(const Stream& st, std::size_t begin, std::size_t end);

  std::vector<pimkd::Neighbor> knn(const pimkd::Point& q, std::size_t k) const;
  std::vector<pimkd::PointId> range(const pimkd::Box& b) const;
  std::vector<pimkd::PointId> radius(const pimkd::Point& c,
                                     pimkd::Coord r) const;

 private:
  double sq_dist(const pimkd::Point& a, const pimkd::Point& b) const;

  int dim_;
  std::vector<pimkd::Point> coords_;
  std::vector<char> alive_;
  std::size_t live_ = 0;
  std::uint64_t epoch_ = 0;
};

// "" when `got` is the exact answer to read `q` on the model's live set,
// otherwise what differs. Epochs are checked by the caller.
std::string check_read(const LiveModel& m, const pimkd::core::Request& q,
                       const pimkd::core::Response& got);

// "" when an update response matches the generator's prediction: an insert
// returns the id the stream assigned it, an erase of a live id reports
// `erased`.
std::string check_update(const Op& op,
                         const pimkd::core::Response& got);

// FNV-1a over a response's payload (kind, error, result fields); ticks and
// epochs are left out so served and replayed answers compare equal.
std::uint64_t response_hash(const pimkd::core::Response& r);

// Whether read `index` of the stream is in the brute-force sample.
bool sampled(std::uint64_t seed, std::size_t index, std::size_t stride);

// Feeds the checker real answers from a small tree, then corrupted copies
// (a swapped neighbour, a dropped id, a wrong count, a wrong insert id, an
// erase not reported), and returns 0 iff it accepts the first and rejects
// each of the others; also checks generate() against gen_serve_workload.
// Prints one line per case to stderr.
int run_selftest();

}  // namespace perfbench
