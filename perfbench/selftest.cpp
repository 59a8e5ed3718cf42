// Planted-fault self-test of the benchmark's answer checks: takes correct
// answers from a real QUASII index, plants one fault in each, and requires
// the checks in oracle.h to pass the clean answers and catch every planted
// fault. Exit code 0 when all are caught.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/request.h"
#include "datagen/synthetic.h"
#include "oracle.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "quasii/quasii_index.h"

namespace {

using perfbench::Answer;
using perfbench::Model;
using quasii::Box3;
using quasii::QuasiiIndex;
using quasii::Query3;

int failures = 0;

/// `why` is the checker's verdict on the answer; `planted` says whether the
/// answer carries a planted fault.
void Expect(const char* what, const std::string& why, bool planted) {
  const bool ok = planted ? !why.empty() : why.empty();
  std::printf("%-8s %-34s %s\n", ok ? "ok" : "MISSED", what,
              why.empty() ? "(passes)" : why.c_str());
  if (!ok) ++failures;
}

Answer Run(QuasiiIndex<3>* ix, const Query3& q) {
  Answer a;
  if (q.type() == quasii::QueryType::kCount) {
    quasii::CountSink sink;
    ix->Execute(q, sink);
    a.count = sink.count();
  } else {
    quasii::VectorSink sink(&a.ids);
    ix->Execute(q, sink);
    a.count = a.ids.size();
  }
  return a;
}

}  // namespace

int main() {
  quasii::Rng rng(7);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 1000;
  }
  const std::vector<Box3> data =
      quasii::datagen::MakeRandomBoxes<3>(20000, universe, 20, &rng);
  QuasiiIndex<3> ix(data);
  Model<3> model(data);
  Box3 qbox;
  for (int d = 0; d < 3; ++d) {
    qbox.lo[d] = 300;
    qbox.hi[d] = 450;
  }
  const Query3 range = quasii::RangeQuery<3>(qbox);
  const Query3 count = quasii::CountQuery<3>(qbox);
  const Query3 knn = quasii::KNearestQuery<3>(qbox.Center(), 10);

  const Answer r = Run(&ix, range);
  const Answer c = Run(&ix, count);
  const Answer k = Run(&ix, knn);
  Expect("clean range answer", model.Check(range, r, true), false);
  Expect("clean count answer", model.Check(count, c, true), false);
  Expect("clean kNN answer", model.Check(knn, k, true), false);

  Answer dropped = r;
  dropped.ids.pop_back();
  dropped.count -= 1;
  Expect("dropped id", model.Check(range, dropped, true), true);

  Answer extra = r;
  for (quasii::ObjectId id = 0; id < data.size(); ++id) {
    if (!Model<3>::Hits(data[id], qbox)) {
      extra.ids.push_back(id);
      break;
    }
  }
  extra.count += 1;
  Expect("extra id (not matching)", model.Check(range, extra, false), true);

  Answer repeated = r;
  repeated.ids.push_back(r.ids.front());
  repeated.count += 1;
  Expect("extra id (repeated)", model.Check(range, repeated, false), true);

  Answer wrong_count = c;
  wrong_count.count += 1;
  Expect("wrong count", model.Check(count, wrong_count, true), true);

  Answer swapped = k;
  std::swap(swapped.ids[0], swapped.ids[1]);
  Expect("kNN out of (distance, id) order", model.Check(knn, swapped, false),
         true);

  // An erased object must not come back.
  Model<3> after_erase = model;
  after_erase.Erase(r.ids.front());
  Expect("erased id returned", after_erase.Check(range, r, false), true);

  // Recovery: a faithful restore passes; a restore whose content differs
  // in one box (same live count) or in the live count is caught.
  const std::string snap = ".bench_out/selftest.snapshot";
  std::filesystem::create_directories(".bench_out");
  if (quasii::persist::WriteSnapshot<3>(ix, snap) !=
      quasii::persist::PersistError::kNone) {
    std::printf("MISSED   cannot write the snapshot\n");
    return 1;
  }
  const perfbench::RecoveryExpectation want{quasii::IndexContentChecksum(ix),
                                            ix.store().live_count()};
  QuasiiIndex<3> recovered(data);
  quasii::persist::RecoverIndex<3>(&recovered, snap, "");
  Expect("clean recovery",
         perfbench::CheckRecovered(want, quasii::IndexContentChecksum(recovered),
                                   recovered.store().live_count()),
         false);
  Box3 moved = data[5];
  moved.lo[0] += 1;
  moved.hi[0] += 1;
  recovered.Erase(5);
  recovered.Insert(5, moved);
  Expect("recovered checksum mismatch",
         perfbench::CheckRecovered(want, quasii::IndexContentChecksum(recovered),
                                   recovered.store().live_count()),
         true);
  recovered.Erase(6);
  Expect("recovered live count mismatch",
         perfbench::CheckRecovered(want, quasii::IndexContentChecksum(recovered),
                                   recovered.store().live_count()),
         true);
  std::filesystem::remove(snap);

  std::printf("%s: %d planted or clean case(s) misjudged\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
