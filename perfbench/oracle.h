// The benchmark's own answer key: a copy of the generated boxes, a model of
// the live set, brute-force answers computed from them, and the checks a
// reported answer must pass. Nothing here executes through the repo's
// indexes (not even its Scan index), so a fault shared by every index
// cannot hide from it.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/query.h"
#include "geometry/box.h"

namespace perfbench {

using quasii::Box;
using quasii::ObjectId;
using quasii::Point;
using quasii::Query;
using quasii::QueryType;
using quasii::Scalar;

/// What one read returned: ids in emission order (kNN: in the reported
/// neighbour order), or only a count for count queries.
struct Answer {
  std::vector<ObjectId> ids;
  std::uint64_t count = 0;
};

template <int D>
class Model {
 public:
  /// Scratch of the repeat check; one per checking thread.
  struct Scratch {
    std::vector<std::uint32_t> seen;
    std::uint32_t stamp = 0;
  };

  explicit Model(const std::vector<Box<D>>& data)
      : boxes_(data), alive_(data.size(), 1), live_(data.size()) {}

  bool alive(ObjectId id) const {
    return id < alive_.size() && alive_[id] != 0;
  }

  /// The verdict the index must give: an insert succeeds for a non-live id
  /// and a non-empty box, an erase for a live id.
  bool Insert(ObjectId id, const Box<D>& b) {
    if (alive(id) || b.IsEmpty()) return false;
    if (id >= boxes_.size()) {
      boxes_.resize(static_cast<std::size_t>(id) + 1);
      alive_.resize(static_cast<std::size_t>(id) + 1, 0);
    }
    boxes_[id] = b;
    alive_[id] = 1;
    ++live_;
    return true;
  }
  bool Erase(ObjectId id) {
    if (!alive(id)) return false;
    alive_[id] = 0;
    --live_;
    return true;
  }

  /// Closed-box intersection, written out per dimension.
  static bool Hits(const Box<D>& b, const Box<D>& q) {
    for (int d = 0; d < D; ++d) {
      if (b.lo[d] > q.hi[d] || b.hi[d] < q.lo[d]) return false;
    }
    return true;
  }

  static double DistSq(const Box<D>& b, const Point<D>& p) {
    double sum = 0;
    for (int d = 0; d < D; ++d) {
      double diff = 0;
      if (p[d] < b.lo[d]) diff = double(b.lo[d]) - double(p[d]);
      if (p[d] > b.hi[d]) diff = double(p[d]) - double(b.hi[d]);
      sum += diff * diff;
    }
    return sum;
  }

  /// The probe box of a range, point or count query.
  static Box<D> ProbeBox(const Query<D>& q) {
    if (q.type() != QueryType::kPoint) return q.box();
    Box<D> b;
    for (int d = 0; d < D; ++d) b.lo[d] = b.hi[d] = q.point()[d];
    return b;
  }

  /// Brute-force answer: ascending ids for range and point queries, the
  /// count for count queries, and the k nearest live objects in ascending
  /// (squared MBB distance, id) order for kNN.
  Answer Solve(const Query<D>& q) const {
    Answer a;
    if (q.type() == QueryType::kKNearest) {
      // Bounded max-heap of the best (distance, id) pairs seen so far.
      std::vector<std::pair<double, ObjectId>> best;
      for (ObjectId id = 0; id < boxes_.size(); ++id) {
        if (!alive_[id]) continue;
        const std::pair<double, ObjectId> c(DistSq(boxes_[id], q.point()), id);
        if (best.size() < q.k()) {
          best.push_back(c);
          std::push_heap(best.begin(), best.end());
        } else if (c < best.front()) {
          std::pop_heap(best.begin(), best.end());
          best.back() = c;
          std::push_heap(best.begin(), best.end());
        }
      }
      std::sort_heap(best.begin(), best.end());
      for (const auto& b : best) a.ids.push_back(b.second);
      a.count = best.size();
      return a;
    }
    const Box<D> probe = ProbeBox(q);
    for (ObjectId id = 0; id < boxes_.size(); ++id) {
      if (alive_[id] && Hits(boxes_[id], probe)) {
        if (q.type() != QueryType::kCount) a.ids.push_back(id);
        ++a.count;
      }
    }
    return a;
  }

  /// Properties every reported answer must have, checked on every read:
  /// each id is live and satisfies the query, no id repeats, and a kNN list
  /// has min(k, live) entries in ascending (distance, id) order. Returns
  /// the first violation, empty when none.
  std::string CheckProperties(const Query<D>& q, const Answer& a,
                              Scratch* scratch) const {
    if ((q.type() == QueryType::kRange || q.type() == QueryType::kCount) &&
        q.predicate() != quasii::RangePredicate::kIntersects) {
      return "the model answers intersection queries only";
    }
    if (q.type() == QueryType::kCount) {
      return a.count <= live_ ? "" : "count exceeds the live population";
    }
    if (a.count != a.ids.size()) return "count differs from ids returned";
    // Repeats are found with a per-check stamp per id, not a sort.
    std::vector<std::uint32_t>& seen = scratch->seen;
    if (++scratch->stamp == 0) {
      std::fill(seen.begin(), seen.end(), 0);
      scratch->stamp = 1;
    }
    seen.resize(boxes_.size(), 0);
    for (const ObjectId id : a.ids) {
      if (!alive(id)) return "id " + std::to_string(id) + " is not live";
      if (seen[id] == scratch->stamp) return "an id repeats";
      seen[id] = scratch->stamp;
    }
    if (q.type() == QueryType::kKNearest) {
      if (a.ids.size() != std::min(q.k(), live_)) {
        return "kNN returned " + std::to_string(a.ids.size()) + " of " +
               std::to_string(q.k());
      }
      for (std::size_t i = 1; i < a.ids.size(); ++i) {
        const std::pair<double, ObjectId> prev(
            DistSq(boxes_[a.ids[i - 1]], q.point()), a.ids[i - 1]);
        const std::pair<double, ObjectId> cur(
            DistSq(boxes_[a.ids[i]], q.point()), a.ids[i]);
        if (!(prev < cur)) return "kNN list out of (distance, id) order";
      }
      return "";
    }
    const Box<D> probe = ProbeBox(q);
    for (const ObjectId id : a.ids) {
      if (!Hits(boxes_[id], probe)) {
        return "id " + std::to_string(id) + " does not satisfy the query";
      }
    }
    return "";
  }

  /// Exact comparison with brute force (sampled reads): same id set for
  /// range and point queries, same count, same kNN list in the same order.
  std::string CheckExact(const Query<D>& q, const Answer& a) const {
    const Answer want = Solve(q);
    if (a.count != want.count) {
      return "count " + std::to_string(a.count) + ", brute force " +
             std::to_string(want.count);
    }
    if (q.type() == QueryType::kCount) return "";
    std::vector<ObjectId> got = a.ids;
    if (q.type() != QueryType::kKNearest) std::sort(got.begin(), got.end());
    return got == want.ids ? "" : "ids differ from brute force";
  }

  /// Both checks; the property check first, as it names the fault better.
  /// Uses the model's own scratch: one checking thread at a time.
  std::string Check(const Query<D>& q, const Answer& a, bool exact) const {
    std::string why = CheckProperties(q, a, &scratch_);
    if (why.empty() && exact) why = CheckExact(q, a);
    return why;
  }

 private:
  std::vector<Box<D>> boxes_;
  std::vector<std::uint8_t> alive_;
  std::size_t live_;
  mutable Scratch scratch_;
};

/// The state a recovered index must reproduce.
struct RecoveryExpectation {
  std::uint64_t checksum = 0;
  std::uint64_t live = 0;
};

inline std::string CheckRecovered(const RecoveryExpectation& want,
                                  std::uint64_t checksum, std::uint64_t live) {
  if (live != want.live) {
    return "recovered live count " + std::to_string(live) + ", expected " +
           std::to_string(want.live);
  }
  if (checksum != want.checksum) return "recovered content checksum differs";
  return "";
}

/// Name of a query type in the operation accounting.
template <int D>
const char* OpName(const Query<D>& q) {
  switch (q.type()) {
    case QueryType::kRange:
      return "range";
    case QueryType::kPoint:
      return "point";
    case QueryType::kCount:
      return "count";
    case QueryType::kKNearest:
      return "knn";
    default:
      return "other";
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
