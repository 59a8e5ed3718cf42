// Pieces every workload shares: the run record, in-process reads, the
// durability epilogue (snapshot, logged mutations, recovery, verification)
// and the traced run's direct per-layer probes.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/crack_array.h"
#include "common/executor.h"
#include "common/request.h"
#include "oracle.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "quasii/quasii_index.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using Index = quasii::QuasiiIndex<3>;
using Box3 = quasii::Box<3>;
using Query3 = quasii::Query<3>;
using Request3 = quasii::Request<3>;
using quasii::QueryStats;

/// Objects in every dataset (the paper's n = 2^20).
inline constexpr std::size_t kObjects = std::size_t{1} << 20;
/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;
/// Every read whose position in its stream is a multiple of this (the first
/// read included) is compared with brute force.
inline constexpr std::size_t kExactEvery = 64;
/// Group-commit policy of every WAL: fsync once per this many appends.
inline constexpr std::size_t kFsyncEveryN = 32;
/// Where a run keeps its files: spans, side reports, WALs, snapshots and
/// sockets, all inside the working directory.
inline const char* const kOutDir = ".bench_out";

/// Everything one run accumulates.
struct RunRecord {
  explicit RunRecord(const Args& a) : args(a), tracer(a.trace) {}
  Args args;
  Tracer tracer;
  OpAccount ops;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;

  void E2E(const std::string& name, double value, const char* unit) {
    e2e[name] = Metric{name, value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{name, value, unit};
  }
  std::string Path(const std::string& leaf) const {
    return std::string(kOutDir) + "/" + args.workload + "." + leaf;
  }
};

/// Rounds a run attempts: `per_second` rounds per second of `--seconds`,
/// at least two. A function of `--seconds` alone, so every run of a
/// workload attempts the same operations whatever its speed.
inline int RoundsFor(double per_second, int seconds) {
  return std::max(2, static_cast<int>(std::lround(per_second * seconds)));
}

/// Executes one read in process.
inline Answer ExecuteRead(Index* index, const Query3& q) {
  Answer a;
  if (q.type() == quasii::QueryType::kCount) {
    quasii::CountSink sink;
    index->Execute(q, sink);
    a.count = sink.count();
  } else {
    quasii::VectorSink sink(&a.ids);
    index->Execute(q, sink);
    a.count = a.ids.size();
  }
  return a;
}

/// Checks one read against the model and books it.
inline void BookRead(RunRecord* run, const Model<3>& model, const Query3& q,
                     const Answer& a, bool exact) {
  const char* type = OpName(q);
  run->ops.Attempt(type);
  const std::string why = model.Check(q, a, exact);
  if (!why.empty()) run->ops.Fail(type, why);
}

/// Checks the index's structural invariants, booked as one operation.
inline void BookInvariants(RunRecord* run, const quasii::SpatialIndex<3>& ix) {
  run->ops.Attempt("invariants");
  std::string why;
  if (!ix.CheckInvariants(&why)) run->ops.Fail("invariants", why);
}

/// Terminal slices of the hierarchy and the rows of those still above
/// their level's size threshold (not yet refined, not frozen).
inline void WalkLeaves(const Index& ix, const std::vector<Index::Slice>& s,
                       double* leaves, double* oversized) {
  for (const Index::Slice& slice : s) {
    if (!slice.children.empty()) {
      WalkLeaves(ix, slice.children, leaves, oversized);
      continue;
    }
    *leaves += 1;
    if (!slice.frozen && slice.size() > ix.LevelThreshold(slice.level)) {
      *oversized += static_cast<double>(slice.size());
    }
  }
}

inline void ReportStructure(RunRecord* run, const Index& ix) {
  double leaves = 0;
  double oversized = 0;
  WalkLeaves(ix, ix.root_slices(), &leaves, &oversized);
  run->Layer("quasii.leaf_slices", leaves, "count");
  run->Layer("quasii.oversized_rows", oversized, "count");
  const auto mem = ix.column_memory();
  run->Layer("quasii.column_bytes", static_cast<double>(mem.resident_bytes),
             "bytes");
  run->Layer("quasii.column_raw_bytes", static_cast<double>(mem.raw_bytes),
             "bytes");
}

/// Per-read work averages over a stats delta covering `reads` reads.
inline void ReportReadWork(RunRecord* run, const QueryStats& delta,
                           double reads, double results) {
  if (reads <= 0) return;
  run->Layer("quasii.objects_tested", double(delta.objects_tested) / reads,
             "count");
  run->Layer("quasii.partitions_visited",
             double(delta.partitions_visited) / reads, "count");
  run->Layer("quasii.bytes_scanned", double(delta.bytes_scanned) / reads,
             "bytes");
  run->Layer("quasii.results_per_tested",
             delta.objects_tested > 0
                 ? results / double(delta.objects_tested)
                 : 0,
             "ratio");
}

/// First query after which the next `window` queries add no crack, from the
/// cumulative crack count after each query; the stream length if none.
inline double QueriesToConverge(const std::vector<std::uint64_t>& cracks,
                                std::size_t window) {
  for (std::size_t i = 0; i + window < cracks.size(); ++i) {
    if (cracks[i + window] == cracks[i]) return static_cast<double>(i + 1);
  }
  return static_cast<double>(cracks.size());
}

inline std::string FreshPath(const RunRecord& run, const std::string& leaf) {
  const std::string p = run.Path(leaf);
  std::error_code ec;
  std::filesystem::remove(p, ec);
  std::filesystem::remove(p + ".tmp", ec);
  return p;
}

/// Latencies of logged mutations, in microseconds.
struct MutationTimes {
  std::vector<double> total_us, insert_us, erase_us, append_us;
};

/// Applies one insert or erase, appends it to the WAL when accepted (its
/// LSN is the store version the mutation produced; the latency includes
/// the append), and checks the verdict against the model, which it updates.
inline void LoggedMutation(RunRecord* run, Index* ix,
                           quasii::persist::WalWriter<3>* wal,
                           Model<3>* model, bool insert, quasii::ObjectId id,
                           const Box3& box, std::uint64_t request,
                           MutationTimes* times) {
  const char* type = insert ? "insert" : "erase";
  run->ops.Attempt(type);
  Tracer::Scope op(run->tracer, insert ? "op.insert" : "op.erase", request);
  const std::int64_t t0 = NowNs();
  bool accepted;
  {
    Tracer::Scope s(run->tracer, insert ? "quasii.insert" : "quasii.erase",
                    request);
    accepted = insert ? ix->Insert(id, box) : ix->Erase(id);
  }
  const std::int64_t t1 = NowNs();
  bool logged = true;
  if (accepted) {
    Tracer::Scope s(run->tracer, "wal.append", request);
    quasii::persist::WalRecord<3> rec;
    rec.lsn = ix->store().version();
    rec.op = insert ? quasii::persist::WalOp::kInsert
                    : quasii::persist::WalOp::kErase;
    rec.id = id;
    rec.box = box;
    logged = wal->Append(rec) == quasii::persist::PersistError::kNone;
  }
  const std::int64_t t2 = NowNs();
  times->total_us.push_back(double(t2 - t0) * 1e-3);
  (insert ? times->insert_us : times->erase_us)
      .push_back(double(t1 - t0) * 1e-3);
  times->append_us.push_back(double(t2 - t1) * 1e-3);
  const bool want = insert ? model->Insert(id, box) : model->Erase(id);
  if (accepted != want) run->ops.Fail(type, "verdict differs from model");
  if (!logged) run->ops.Fail(type, "WAL append failed");
}

/// Reports the mutation latencies and the WAL's own counters.
inline void ReportMutations(RunRecord* run, const MutationTimes& times,
                            const quasii::persist::WalWriter<3>& wal) {
  run->E2E("mutation_p50_us", Median(times.total_us), "us");
  run->Layer("quasii.insert_us", Median(times.insert_us), "us");
  run->Layer("quasii.erase_us", Median(times.erase_us), "us");
  run->Layer("wal.append_us", Median(times.append_us), "us");
  run->Layer("wal.bytes_per_mutation",
             double(wal.bytes_written()) / double(wal.records_appended()),
             "bytes");
  run->Layer("wal.syncs", double(wal.syncs()), "count");
}

/// Recovers a fresh index over `data` from `snap` + `wal`, then checks it
/// reproduces `want` and answers `sample` exactly like brute force over the
/// model. Returns the recovery wall time in seconds.
inline double RecoverAndVerify(RunRecord* run,
                               const std::vector<Box3>& data,
                               const std::string& snap, const std::string& wal,
                               const RecoveryExpectation& want,
                               const Model<3>& model,
                               const std::vector<Query3>& sample) {
  Index fresh(data);
  quasii::persist::RecoveryResult rec;
  const std::int64_t t0 = NowNs();
  {
    Tracer::Scope s(run->tracer, "recovery.recover");
    rec = quasii::persist::RecoverIndex<3>(&fresh, snap, wal);
  }
  const double secs = SecondsSince(t0);
  run->ops.Attempt("recover");
  std::string why;
  if (!rec.ok()) {
    why = std::string("recovery failed: ") +
          quasii::persist::PersistErrorName(rec.error) + " " + rec.detail;
  } else {
    why = CheckRecovered(want, quasii::IndexContentChecksum(fresh),
                         fresh.store().live_count());
  }
  if (!why.empty()) run->ops.Fail("recover", why);
  run->Layer("recovery.ms", secs * 1e3, "ms");
  run->Layer("recovery.replayed_records", double(rec.wal_replayed), "count");
  for (const Query3& q : sample) {
    BookRead(run, model, q, ExecuteRead(&fresh, q), /*exact=*/true);
  }
  return secs;
}

/// Durability epilogue of the read-only workloads, run on a converged
/// index: a snapshot, a fixed round of logged erases and re-inserts of the
/// same objects (so index and model end where they began), then recovery
/// from snapshot + WAL and its verification. Adds to `times` and
/// `recover_s`, and reports the pooled `mutation_p50_us`.
inline void DurableEpilogue(RunRecord* run, Index* ix, Model<3>* model,
                            const std::vector<Box3>& data,
                            const std::vector<Query3>& sample,
                            MutationTimes* times,
                            std::vector<double>* recover_s) {
  constexpr std::size_t kMutations = 512;
  const std::string snap = FreshPath(*run, "epilogue.snapshot");
  const std::string wal_path = FreshPath(*run, "epilogue.wal");
  std::uint64_t snap_bytes = 0;
  const std::int64_t ts = NowNs();
  run->ops.Attempt("snapshot");
  {
    Tracer::Scope s(run->tracer, "snapshot.write");
    if (quasii::persist::WriteSnapshot<3>(*ix, snap, &snap_bytes) !=
        quasii::persist::PersistError::kNone) {
      run->ops.Fail("snapshot", "WriteSnapshot failed");
    }
  }
  run->Layer("snapshot.write_ms", SecondsSince(ts) * 1e3, "ms");
  run->Layer("snapshot.bytes", double(snap_bytes), "bytes");

  quasii::persist::WalWriter<3> wal;
  if (wal.Open(wal_path, quasii::persist::FsyncPolicy::kEveryN,
               kFsyncEveryN) != quasii::persist::PersistError::kNone) {
    run->ops.Attempt("wal");
    run->ops.Fail("wal", "cannot open the WAL");
    return;
  }
  // Erase the objects at evenly spaced ids, then insert them again.
  std::vector<quasii::ObjectId> victims;
  for (std::size_t i = 0; i < kMutations / 2; ++i) {
    victims.push_back(static_cast<quasii::ObjectId>(
        (i * 2654435761u) % data.size()));
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (int pass = 0; pass < 2; ++pass) {
    for (const quasii::ObjectId id : victims) {
      LoggedMutation(run, ix, &wal, model, /*insert=*/pass == 1, id, data[id],
                     id, times);
    }
  }
  if (wal.Sync() != quasii::persist::PersistError::kNone) {
    run->ops.Attempt("wal");
    run->ops.Fail("wal", "final sync failed");
  }
  ReportMutations(run, *times, wal);
  wal.Close();
  BookInvariants(run, *ix);
  const RecoveryExpectation want{quasii::IndexContentChecksum(*ix),
                                 ix->store().live_count()};
  recover_s->push_back(
      RecoverAndVerify(run, data, snap, wal_path, want, *model, sample));
}

/// Direct timings of the layers QUASII is built on, taken in the traced run
/// on a `CrackArray` built from the workload's own dataset and queries:
/// column load, a crack at query bounds over the whole array, median
/// splits, leaf-sized `StreamScan`s and the SIMD kernels under them.
inline void ProbeCrackArray(RunRecord* run, const std::vector<Box3>& data,
                            const std::vector<Box3>& qboxes) {
  using quasii::CrackArray;
  const double n = double(data.size());
  std::vector<double> load_ms;
  std::unique_ptr<CrackArray<3>> arr;
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope s(run->tracer, "crack_array.load");
    const std::int64_t t0 = NowNs();
    arr = std::make_unique<CrackArray<3>>(data);
    load_ms.push_back(SecondsSince(t0) * 1e3);
  }
  run->Layer("crack_array.load_ms", Median(load_ms), "ms");

  std::vector<double> crack_ns, split_ns;
  for (int i = 0; i < 6; ++i) {
    const int d = i % 3;
    const Box3& q = qboxes[static_cast<std::size_t>(i) % qboxes.size()];
    Tracer::Scope s(run->tracer, "crack_array.crack");
    const std::int64_t t0 = NowNs();
    arr->CrackOnAxis(0, data.size(), d, q.lo[d]);
    crack_ns.push_back(double(NowNs() - t0) / n);
  }
  for (int d = 0; d < 3; ++d) {
    Tracer::Scope s(run->tracer, "crack_array.median_split");
    const std::int64_t t0 = NowNs();
    arr->MedianSplit(0, data.size(), d);
    split_ns.push_back(double(NowNs() - t0) / n);
  }
  run->Layer("crack_array.crack_ns_per_row", Median(crack_ns), "ns");
  run->Layer("crack_array.median_split_ns_per_row", Median(split_ns), "ns");

  // Leaf-sized ranges at a fixed stride through the array, each scanned
  // with the next workload query.
  constexpr std::size_t kLeaf = 1024;
  constexpr std::size_t kScans = 4096;
  const std::size_t leaves = data.size() / kLeaf;
  std::vector<quasii::ObjectId> out;
  std::vector<quasii::ObjectId> compact(kLeaf);
  std::vector<std::uint8_t> mask(kLeaf);
  std::int64_t scan_ns = 0, mask_ns = 0, compact_ns = 0;
  for (std::size_t j = 0; j < kScans; ++j) {
    const std::size_t begin = ((j * 7919) % leaves) * kLeaf;
    const Box3& q = qboxes[j % qboxes.size()];
    quasii::VectorSink sink(&out);
    quasii::MatchEmitter emit(false, &sink);
    out.clear();
    {
      Tracer::Scope s(run->tracer, "crack_array.scan");
      const std::int64_t t0 = NowNs();
      arr->StreamScan(begin, begin + kLeaf, q,
                      quasii::RangePredicate::kIntersects, 0, &emit);
      scan_ns += NowNs() - t0;
    }
    std::fill(mask.begin(), mask.end(), 1);
    {
      Tracer::Scope s(run->tracer, "simd.mask");
      const std::int64_t t0 = NowNs();
      for (int d = 0; d < 3; ++d) {
        quasii::simd::MaskLeGe(arr->lo_col(d).data() + begin, q.hi[d],
                               arr->hi_col(d).data() + begin, q.lo[d],
                               mask.data(), kLeaf);
      }
      mask_ns += NowNs() - t0;
    }
    {
      Tracer::Scope s(run->tracer, "simd.compact");
      const std::int64_t t0 = NowNs();
      quasii::simd::CompactIds(arr->ids().data() + begin, mask.data(), kLeaf,
                               compact.data());
      compact_ns += NowNs() - t0;
    }
  }
  const double rows = double(kScans * kLeaf);
  run->Layer("crack_array.scan_ns_per_row", double(scan_ns) / rows, "ns");
  run->Layer("simd.mask_ns_per_row", double(mask_ns) / rows, "ns");
  run->Layer("simd.compact_ns_per_row", double(compact_ns) / rows, "ns");
}

/// Most requests one client connection keeps outstanding (two connections
/// together stay within the server's admission bound of 256, so nothing is
/// ever refused).
inline constexpr std::size_t kConnectionWindow = 96;
/// Served reads compared with brute force: the first and every this many.
inline constexpr std::size_t kServeExactEvery = 256;
/// Latency percentiles of served requests are taken per measured window of
/// this many consecutive requests (so >= 10 samples lie beyond the p99),
/// and a rate's p99 is the median over its windows: a multi-millisecond
/// scheduling stall of the host then moves one window, not the figure.
inline constexpr std::size_t kWindowReads = 1000;

/// One served request as the client saw it.
struct Served {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  bool replied = false;
};

/// What a client thread shares with the run: the model its answers are
/// checked against, the operation accounting, and the reads kept for the
/// exact comparison after the window.
struct ClientChecks {
  const Model<3>* model;
  OpAccount* ops;
  std::vector<std::pair<std::size_t, Answer>> sampled;
  double results = 0;
};

/// Open-loop sender/receiver of one connection: request `j` of `reqs` with
/// `j % connections == conn` is due at `t0 + j / rate`, sent as soon as it
/// is due (and the connection's window allows), and timed from its due time
/// to the arrival of its reply. Each reply's properties are checked as it
/// arrives, so no answer outlives its check; `base + j` is the request's
/// position in the whole served stream.
inline void ClientLoop(quasii::server::WireClient<3>* client, int conn,
                int connections, const std::vector<Request3>& reqs,
                std::size_t base,
                std::int64_t t0, double rate, std::vector<Served>* out,
                ClientChecks* checks, Tracer* tracer) {
  std::vector<std::size_t> mine;
  for (std::size_t j = static_cast<std::size_t>(conn); j < reqs.size();
       j += static_cast<std::size_t>(connections)) {
    mine.push_back(j);
  }
  const double ns_per_req = 1e9 / rate;
  auto due = [&](std::size_t k) {
    return t0 + static_cast<std::int64_t>(double(mine[k]) * ns_per_req);
  };
  Model<3>::Scratch scratch;
  std::size_t sent = 0, recvd = 0;
  std::uint64_t first_seq = 0;
  pollfd pfd{client->fd(), POLLIN, 0};
  while (recvd < mine.size()) {
    std::int64_t now = NowNs();
    while (sent < mine.size() && due(sent) <= now &&
           sent - recvd < kConnectionWindow) {
      Served& s = (*out)[mine[sent]];
      s.due_ns = due(sent);
      s.send_ns = now;
      const auto seq = client->Send(0, reqs[mine[sent]]);
      if (!seq) return;
      if (sent == 0) first_seq = *seq;
      ++sent;
      now = NowNs();
    }
    std::int64_t wait_ns = 50'000'000;
    if (sent < mine.size() && sent - recvd < kConnectionWindow) {
      wait_ns = std::max<std::int64_t>(0, due(sent) - now);
    }
    const timespec ts{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
    if (sent == recvd && sent < mine.size() && wait_ns > 0) {
      // Nothing outstanding: sleep until the next request is due.
      nanosleep(&ts, nullptr);
      continue;
    }
    const int ready = ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) return;
    if (ready == 0) continue;
    if ((pfd.revents & POLLIN) == 0) return;  // hang-up or error
    auto reply = client->Recv();
    if (!reply) return;
    const std::int64_t arrived = NowNs();
    const std::size_t k = static_cast<std::size_t>(reply->seq - first_seq);
    if (k >= sent) return;
    Served& s = (*out)[mine[k]];
    s.recv_ns = arrived;
    s.replied = true;
    const std::size_t pos = base + mine[k];
    tracer->Record("server.request", s.due_ns, s.recv_ns, pos);
    ++recvd;

    const Query3& q = reqs[mine[k]].query();
    const char* type = OpName(q);
    checks->ops->Attempt(type);
    if (reply->response.status != quasii::ResponseStatus::kOk) {
      checks->ops->Fail(type, "response not OK");
      continue;
    }
    Answer a;
    a.ids = std::move(reply->response.ids);
    a.count = reply->response.count;
    checks->results += double(a.count);
    const std::string why = checks->model->CheckProperties(q, a, &scratch);
    if (!why.empty()) checks->ops->Fail(type, why);
    if (pos % kServeExactEvery == 0) checks->sampled.emplace_back(pos, a);
  }
}

struct OpenLoopResult {
  std::size_t replied = 0;
  double p50_us = 0;
  double p99_us = 0;
  double achieved = 0;  ///< replies per second, from the first due time
  double lag_p99_ms = 0;
  double results = 0;
};

/// Offers `reqs[offset, offset + n)` open loop at `rate` over `clients`
/// (one thread each), checks every reply, and compares the sampled ones
/// with brute force.
inline OpenLoopResult ServeOpenLoop(
    RunRecord* run,
    const std::vector<std::unique_ptr<quasii::server::WireClient<3>>>& clients,
    const std::vector<Request3>& reqs, const std::vector<Query3>& reads,
    std::size_t offset, std::size_t n, double rate, const Model<3>& model) {
  const int connections = static_cast<int>(clients.size());
  const std::vector<Request3> wreqs(reqs.begin() + offset,
                                    reqs.begin() + offset + n);
  std::vector<Served> out(n);
  const std::int64_t t0 = NowNs() + 2'000'000;
  std::vector<ClientChecks> checks(clients.size(),
                                   ClientChecks{&model, &run->ops, {}, 0});
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(ClientLoop, clients[c].get(), c, connections,
                         std::cref(wreqs), offset, t0, rate, &out, &checks[c],
                         &run->tracer);
  }
  for (std::thread& t : threads) t.join();

  OpenLoopResult r;
  std::vector<double> lat_us, lag_ms;
  std::int64_t last = t0;
  for (std::size_t j = 0; j < n; ++j) {
    const Served& s = out[j];
    if (!s.replied) {
      const char* type = OpName(reads[offset + j]);
      run->ops.Attempt(type);
      run->ops.Fail(type, "no response");
      continue;
    }
    lat_us.push_back(double(s.recv_ns - s.due_ns) * 1e-3);
    lag_ms.push_back(double(s.send_ns - s.due_ns) * 1e-6);
    last = std::max(last, s.recv_ns);
  }
  std::vector<double> p99s;
  for (std::size_t b = 0; b + kWindowReads <= lat_us.size();
       b += kWindowReads) {
    p99s.push_back(Percentile(
        std::vector<double>(lat_us.begin() + b,
                            lat_us.begin() + b + kWindowReads),
        99));
  }
  r.replied = lat_us.size();
  r.p50_us = Percentile(lat_us, 50);
  r.p99_us = p99s.empty() ? Percentile(lat_us, 99) : Median(p99s);
  r.achieved = double(lat_us.size()) / (double(last - t0) * 1e-9);
  r.lag_p99_ms = Percentile(lag_ms, 99);
  for (const ClientChecks& c : checks) {
    r.results += c.results;
    for (const auto& [pos, a] : c.sampled) {
      const std::string why = model.CheckExact(reads[pos], a);
      if (!why.empty()) run->ops.Fail(OpName(reads[pos]), why);
    }
  }
  return r;
}

/// Request codec, in-process request execution, the batch executor and the
/// socket round trip, measured on the workload's (converged) index with the
/// workload's own reads. Runs a probe server of its own on a Unix socket.
/// With `open_loop_burst`, also offers 2000 reads open loop at 4000/s on
/// one connection, for the generator's send lag and the server's batching.
inline void ProbeServing(RunRecord* run, Index* ix,
                         const std::vector<Query3>& reads,
                         const Model<3>& model, bool open_loop_burst) {
  const std::size_t n = std::min<std::size_t>(reads.size(), 512);
  std::vector<Request3> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(Request3::MakeQuery(reads[i]));
  }
  std::vector<std::string> req_bytes(n), resp_bytes(n);
  std::vector<quasii::Response<3>> resps(n);
  std::vector<double> exec_us;
  std::int64_t ser = 0, parse = 0, rser = 0, rparse = 0;
  double resp_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t t0 = NowNs();
    {
      quasii::ByteWriter w(&req_bytes[i]);
      reqs[i].Serialize(&w);
    }
    ser += NowNs() - t0;
    t0 = NowNs();
    const auto parsed = Request3::TryParse(std::string_view(req_bytes[i]));
    parse += NowNs() - t0;
    run->ops.Attempt("codec");
    if (!parsed) run->ops.Fail("codec", "request did not parse back");
    {
      Tracer::Scope s(run->tracer, "request.execute", i);
      t0 = NowNs();
      resps[i] = quasii::ExecuteRequest<3>(ix, reqs[i]);
      exec_us.push_back(double(NowNs() - t0) * 1e-3);
    }
    t0 = NowNs();
    {
      quasii::ByteWriter w(&resp_bytes[i]);
      resps[i].Serialize(&w);
    }
    rser += NowNs() - t0;
    resp_total += double(resp_bytes[i].size());
    t0 = NowNs();
    const auto rparsed =
        quasii::Response<3>::TryParse(std::string_view(resp_bytes[i]));
    rparse += NowNs() - t0;
    if (!rparsed || rparsed->count != resps[i].count) {
      run->ops.Fail("codec", "response did not parse back");
    }
  }
  const double dn = double(n);
  run->Layer("request.serialize_ns", double(ser) / dn, "ns");
  run->Layer("request.parse_ns", double(parse) / dn, "ns");
  run->Layer("response.serialize_ns", double(rser) / dn, "ns");
  run->Layer("response.parse_ns", double(rparse) / dn, "ns");
  run->Layer("response.bytes", resp_total / dn, "bytes");
  run->Layer("request.execute_us", Median(exec_us), "us");

  // Converged batches at the server's pool size.
  {
    quasii::ThreadPool pool(4);
    quasii::BatchExecutor<3> exec(&pool);
    std::vector<double> batch_us;
    for (std::size_t b = 0; b + 64 <= n; b += 64) {
      Tracer::Scope s(run->tracer, "executor.batch", b);
      const std::int64_t t0 = NowNs();
      exec.Run(ix, std::span<const Query3>(reads.data() + b, 64));
      batch_us.push_back(double(NowNs() - t0) * 1e-3);
    }
    run->Layer("executor.batch_us", Median(batch_us), "us");
  }

  // Round trips over a socket, one request in flight at a time.
  quasii::server::QueryServer<3>::Options opts;
  quasii::server::QueryServer<3> server({ix}, opts);
  const std::string sock =
      FreshPath(*run, "probe." + std::to_string(::getpid()) + ".sock");
  std::string err;
  run->ops.Attempt("ping");
  quasii::server::WireClient<3> client;
  if (!server.Start(&err) || !server.Listen(sock, &err) ||
      !client.ConnectUds(sock) || !client.Handshake()) {
    run->ops.Fail("ping", "probe server unavailable: " + err);
    return;
  }
  std::vector<double> ping_us, rtt_us;
  for (int i = 0; i < 1000; ++i) {
    Tracer::Scope s(run->tracer, "server.ping", std::uint64_t(i));
    const std::int64_t t0 = NowNs();
    const auto reply = client.Call(0, Request3::MakePing());
    ping_us.push_back(double(NowNs() - t0) * 1e-3);
    if (!reply || reply->response.status != quasii::ResponseStatus::kOk) {
      run->ops.Fail("ping", "ping failed");
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = NowNs();
    const auto reply = client.Call(0, reqs[i]);
    rtt_us.push_back(double(NowNs() - t0) * 1e-3);
    if (!reply || reply->response.count != resps[i].count) {
      run->ops.Fail("ping", "query over the socket disagrees in process");
      break;
    }
  }
  client.Close();
  if (open_loop_burst) {
    constexpr std::size_t kBurst = 2000;
    std::vector<Query3> breads;
    std::vector<Request3> breqs;
    for (std::size_t i = 0; i < kBurst; ++i) {
      breads.push_back(reads[i % reads.size()]);
      breqs.push_back(Request3::MakeQuery(breads.back()));
    }
    std::vector<std::unique_ptr<quasii::server::WireClient<3>>> clients;
    clients.push_back(std::make_unique<quasii::server::WireClient<3>>());
    if (!clients[0]->ConnectUds(sock) || !clients[0]->Handshake()) {
      run->ops.Fail("ping", "probe server refused the burst connection");
    } else {
      const auto before = server.counters();
      const OpenLoopResult r =
          ServeOpenLoop(run, clients, breqs, breads, 0, kBurst, 4000, model);
      const auto after = server.counters();
      run->Layer("server.send_lag_ms", r.lag_p99_ms, "ms");
      run->Layer("server.batched_share",
                 double(after.batched_queries - before.batched_queries) /
                     double(after.accepted - before.accepted),
                 "ratio");
    }
    clients[0]->Close();
  }
  server.Stop();
  std::error_code ec;
  std::filesystem::remove(sock, ec);
  const double rtt = Median(rtt_us);
  run->Layer("server.ping_rtt_us", Median(ping_us), "us");
  run->Layer("server.wire_share", rtt > 0 ? (rtt - Median(exec_us)) / rtt : 0,
             "ratio");
}

/// Intra-query scheduler work since `before`.
inline void ReportScheduler(RunRecord* run,
                            const quasii::TaskScheduler::Stats& before,
                            double streams) {
  const auto now = quasii::IntraQueryScheduler().stats();
  const double tasks = double((now.executed - before.executed) +
                             (now.helped - before.helped) +
                             (now.inlined - before.inlined));
  run->Layer("task_scheduler.tasks", tasks / streams, "count");
  run->Layer("task_scheduler.steals",
             double(now.stolen - before.stolen) / streams, "count");
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
