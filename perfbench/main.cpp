// QUASII benchmark program. One process runs one workload for `--seconds`,
// checks every answer against the benchmark's own brute-force model, and
// prints one JSON result line last: the end-to-end metrics with tracing
// off, the per-layer metrics with `--trace 1`.
//
//   perfbench --workload cold-uniform --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for the inputs and why each was chosen):
//   cold-uniform       fresh indexes answering a uniform range stream
//   serve-clustered    a converged index served open loop over a socket
//                      (not in BENCHMARK.json: too sensitive to host steal)
//   readwrite-durable  a read/write mix with a WAL, snapshots and recovery

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common.h"
#include "datagen/neuro.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "layers.h"
#include "oracle.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// cold-uniform

/// Queries per cold stream; the second half is the converged phase.
constexpr int kColdQueries = 2000;
constexpr double kColdSelectivity = 1e-3;
/// Cold starts per second of `--seconds` (on a 4-core VM each takes about
/// 1.4 s, its checks and its share of the durability epilogues included).
/// The count is a function of `--seconds` alone, so every run attempts the
/// same operations.
constexpr double kColdStartsPerSecond = 1.0;
/// Window of the convergence test: no crack in this many queries.
constexpr std::size_t kConvergeWindow = 100;
/// Every this many cold starts (and after the last one if it has not run
/// yet), the durability epilogue runs on the converged index, so its
/// samples spread over the run.
constexpr int kEpilogueEvery = 4;
/// Request id of the traced run's parallel cold start.
constexpr std::uint64_t kColdParallelStart = 1000;

void ColdUniform(RunRecord* run) {
  Tracer& tr = run->tracer;
  const std::uint64_t seed = run->args.seed;
  quasii::datagen::UniformDatasetParams dp;
  dp.count = kObjects;
  dp.seed = SubSeed(seed, 1);
  const int starts = RoundsFor(kColdStartsPerSecond, run->args.seconds);
  // Each cold start answers its own draw of the stream, so the medians
  // rest on many first queries, not on one.
  auto stream_params = [&](int k) {
    quasii::datagen::UniformQueryParams qp;
    qp.count = kColdQueries;
    qp.selectivity = kColdSelectivity;
    qp.seed = SubSeed(seed, 100 + static_cast<std::uint64_t>(k));
    return qp;
  };

  std::vector<Box3> data;
  std::vector<std::vector<Box3>> streams;
  std::unique_ptr<Index> ix;
  std::vector<double> setup_s, datagen_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    ix.reset();
    Tracer::Scope s(tr, "setup");
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope g(tr, "datagen.generate");
      data = quasii::datagen::MakeUniformDataset(dp);
      streams.clear();
      for (int k = 0; k < starts; ++k) {
        streams.push_back(quasii::datagen::MakeUniformQueries(
            quasii::datagen::UniformUniverse(dp), stream_params(k)));
      }
      datagen_ms.push_back(SecondsSince(t0) * 1e3);
    }
    {
      Tracer::Scope c(tr, "quasii.construct");
      ix = std::make_unique<Index>(data);
      ix->Build();
    }
    setup_s.push_back(SecondsSince(t0));
  }
  run->E2E("setup_s", Median(setup_s), "s");
  run->Layer("datagen.ms", Median(datagen_ms), "ms");
  Model<3> model(data);

  // One cold start: a fresh index answers `stream`; returns the per-query
  // latencies (s) and books every answer against the model.
  struct Start {
    std::vector<double> lat;
    std::vector<Answer> answers;
    QueryStats at_start, at_half, at_end;
    std::vector<std::uint64_t> cum_cracks;
    double wall_s = 0;
  };
  std::vector<Query3> queries;
  std::vector<double> cf_us;
  double approved = 0;
  auto cold_start = [&](const std::vector<Box3>& stream, std::uint64_t k) {
    ix.reset();  // one index alive at a time, as in a real restart
    TrimHeap();
    ix = std::make_unique<Index>(data);
    queries.clear();
    for (const Box3& b : stream) queries.push_back(quasii::RangeQuery<3>(b));
    const std::size_t nq = queries.size();
    Start st;
    st.lat.resize(nq);
    st.answers.resize(nq);
    st.at_start = ix->stats();
    const std::int64_t t_stream = NowNs();
    for (std::size_t i = 0; i < nq; ++i) {
      Tracer::Scope op(tr, "op.range", i);
      if (i == nq / 2) st.at_half = ix->stats();
      if (tr.on()) {
        Tracer::Scope s(tr, "quasii.converged_for", i);
        const std::int64_t t0 = NowNs();
        approved += ix->ConvergedFor(queries[i]) ? 1 : 0;
        cf_us.push_back(double(NowNs() - t0) * 1e-3);
      }
      const std::int64_t t0 = NowNs();
      {
        Tracer::Scope s(tr, "quasii.execute", i);
        st.answers[i] = ExecuteRead(ix.get(), queries[i]);
      }
      st.lat[i] = double(NowNs() - t0) * 1e-9;
      if (tr.on()) st.cum_cracks.push_back(ix->stats().cracks);
    }
    st.wall_s = SecondsSince(t_stream);
    st.at_end = ix->stats();
    Tracer::Scope c(tr, "check.stream", k);
    for (std::size_t i = 0; i < nq; ++i) {
      BookRead(run, model, queries[i], st.answers[i], i % kExactEvery == 0);
    }
    BookInvariants(run, *ix);
    return st;
  };

  std::vector<double> first_ms, stream_s, conv_us, conv_p99, conv_qps,
      cracks, moved, to_converge, exec_us, recover_s;
  MutationTimes mutations;
  QueryStats conv_delta;
  double conv_reads = 0, conv_results = 0;
  for (int k = 0; k < starts; ++k) {
    const Start st = cold_start(streams[k], static_cast<std::uint64_t>(k));
    const std::size_t nq = st.lat.size();
    const std::size_t half = nq / 2;
    stream_s.push_back(st.wall_s);
    first_ms.push_back(st.lat[0] * 1e3);
    std::vector<double> half_us;
    double conv_sum = 0;
    for (std::size_t i = 0; i < nq; ++i) {
      exec_us.push_back(st.lat[i] * 1e6);
      if (i >= half) {
        half_us.push_back(st.lat[i] * 1e6);
        conv_sum += st.lat[i];
        conv_results += double(st.answers[i].count);
      }
    }
    conv_us.insert(conv_us.end(), half_us.begin(), half_us.end());
    conv_p99.push_back(Percentile(half_us, 99));
    conv_qps.push_back(double(nq - half) / conv_sum);
    conv_delta += st.at_end - st.at_half;
    conv_reads += double(nq - half);
    cracks.push_back(double((st.at_end - st.at_start).cracks));
    moved.push_back(double((st.at_end - st.at_start).objects_moved));
    if (tr.on()) {
      to_converge.push_back(QueriesToConverge(st.cum_cracks, kConvergeWindow));
    }
    if ((k + 1) % kEpilogueEvery == 0 ||
        (k + 1 == starts && recover_s.empty())) {
      const std::vector<Query3> sample(queries.begin(), queries.begin() + 16);
      DurableEpilogue(run, ix.get(), &model, data, sample, &mutations,
                      &recover_s);
    }
  }
  run->E2E("first_query_ms", Median(first_ms), "ms");
  run->E2E("recover_s", Median(recover_s), "s");
  run->E2E("stream_s", Median(stream_s), "s");
  // Each converged half is one measured window of 1000 reads; the p99 is
  // the median over windows, so one disturbed window does not move it.
  run->E2E("query_p50_us", Percentile(conv_us, 50), "us");
  run->E2E("query_p99_us", Median(conv_p99), "us");
  run->E2E("max_qps", Median(conv_qps), "queries/s");
  run->Layer("quasii.execute_cold_ms", Median(first_ms), "ms");
  run->Layer("quasii.execute_us", Median(exec_us), "us");
  run->Layer("quasii.converged_for_us", Median(cf_us), "us");
  run->Layer("quasii.shared_share",
             cf_us.empty() ? 0 : approved / double(cf_us.size()), "ratio");
  run->Layer("quasii.cracks", Median(cracks), "count");
  run->Layer("quasii.objects_moved", Median(moved), "count");
  run->Layer("quasii.queries_to_converge", Median(to_converge), "count");
  ReportReadWork(run, conv_delta, conv_reads, conv_results);
  ReportStructure(run, *ix);
  if (tr.on()) {
    ProbeCrackArray(run, data, streams.back());
    ProbeServing(run, ix.get(), queries, model, true);
    // One more cold start with the morsel scheduler at min(nproc, 4)
    // threads, for the scheduler's work and the parallel first query.
    const int threads = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    quasii::SetIntraQueryThreads(threads);
    const auto before = quasii::IntraQueryScheduler().stats();
    const Start st = cold_start(streams.front(), kColdParallelStart);
    ReportScheduler(run, before, 1);
    run->Layer("task_scheduler.threads", threads, "count");
    run->Layer("task_scheduler.first_query_ms", st.lat[0] * 1e3, "ms");
    quasii::SetIntraQueryThreads(1);
  }
}

// ---------------------------------------------------------------------------
// serve-clustered

constexpr int kClusters = 5;
constexpr std::uint64_t kServeCentreSeed = 22;
/// Warm-up queries per cluster: enough that fresh draws from the same
/// clusters rarely find a slice left to crack.
constexpr int kWarmupPerCluster = 2000;
constexpr double kClusterSigma = 0.02;
constexpr double kServeSelectivity = 1e-4;
constexpr std::size_t kKnnK = 10;
/// Client connections, one thread each.
constexpr int kConnections = 2;
/// Offered rates (requests/s) and the share of the run each is offered for.
/// The reference rate gets the largest share.
constexpr double kRates[] = {4000, 8000, 16000, 32000};
constexpr double kRateShare[] = {0.1, 0.2, 0.5, 0.2};
/// The rate whose latencies are reported as `query_p50_us`/`query_p99_us`:
/// about half the capacity measured on a 4-core VM. Below it, the server's
/// threads idle between requests and their wake-ups, not the server, set
/// the tail.
constexpr double kReferenceRate = 16000;
/// The p99 latency limit a rate must meet to count towards `max_qps`.
constexpr double kLatencyLimitUs = 750;

struct ServeSetup {
  std::unique_ptr<Index> ix;
  std::unique_ptr<quasii::server::QueryServer<3>> server;
  std::vector<std::unique_ptr<quasii::server::WireClient<3>>> clients;
  std::string socket;

  void TearDown() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server) server->Stop();
    server.reset();
    std::error_code ec;
    if (!socket.empty()) std::filesystem::remove(socket, ec);
  }
};

void ServeClustered(RunRecord* run) {
  Tracer& tr = run->tracer;
  const std::uint64_t seed = run->args.seed;
  // The dataset and the cluster centres are fixed, like the paper's one
  // brain model and its regions of interest; the seed draws every query.
  // (Centres drawn per seed land in regions whose density differs several
  // fold, which would make the figures measure the draw, not the server.)
  quasii::datagen::NeuroDatasetParams dp;
  dp.count = kObjects;
  const Box3 universe = quasii::datagen::NeuroUniverse(dp);
  const Scalar side = quasii::datagen::QuerySideFor(universe, kServeSelectivity);

  // Query boxes around the cluster centres, Gaussian per dimension.
  auto draw = [&](const std::vector<quasii::Point<3>>& centres,
                  quasii::Rng* rng, int per_cluster) {
    std::vector<Box3> out;
    for (int i = 0; i < per_cluster; ++i) {
      for (const quasii::Point<3>& c : centres) {
        quasii::Point<3> qc;
        for (int d = 0; d < 3; ++d) {
          qc[d] = static_cast<Scalar>(rng->Gaussian(
              double(c[d]), kClusterSigma * double(universe.Extent(d))));
        }
        out.push_back(quasii::datagen::QueryAround(universe, qc, side));
      }
    }
    return out;
  };

  std::vector<Box3> data;
  std::vector<quasii::Point<3>> centres;
  ServeSetup st;
  std::vector<double> setup_s, datagen_ms, warm_s, first_ms;
  std::vector<std::uint64_t> warm_cracks;
  QueryStats warm_stats;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.TearDown();
    st.ix.reset();
    Tracer::Scope s(tr, "setup");
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope g(tr, "datagen.generate");
      data = quasii::datagen::MakeNeuroDataset(dp);
      datagen_ms.push_back(SecondsSince(t0) * 1e3);
    }
    quasii::Rng crng(kServeCentreSeed);
    centres.clear();
    for (int c = 0; c < kClusters; ++c) {
      centres.push_back(
          data[static_cast<std::size_t>(crng.UniformInt(
                   0, static_cast<std::int64_t>(data.size()) - 1))]
              .Center());
    }
    quasii::Rng wrng(SubSeed(seed, 200 + static_cast<std::uint64_t>(r)));
    const std::vector<Box3> warm = draw(centres, &wrng, kWarmupPerCluster);
    {
      Tracer::Scope c(tr, "quasii.construct");
      st.ix = std::make_unique<Index>(data);
      st.ix->Build();
    }
    // Warm-up: the paper's clustered workload, in process.
    warm_cracks.clear();
    const std::int64_t tw = NowNs();
    for (std::size_t i = 0; i < warm.size(); ++i) {
      Tracer::Scope op(tr, "op.warmup", i);
      const std::int64_t tq = NowNs();
      {
        Tracer::Scope e(tr, "quasii.execute", i);
        ExecuteRead(st.ix.get(), quasii::RangeQuery<3>(warm[i]));
      }
      if (i == 0) first_ms.push_back(SecondsSince(tq) * 1e3);
      if (tr.on()) warm_cracks.push_back(st.ix->stats().cracks);
    }
    warm_s.push_back(SecondsSince(tw));
    warm_stats = st.ix->stats();
    {
      Tracer::Scope c(tr, "server.start");
      quasii::server::QueryServer<3>::Options opts;
      st.server = std::make_unique<quasii::server::QueryServer<3>>(
          std::vector<quasii::SpatialIndex<3>*>{st.ix.get()}, opts);
      st.socket =
          FreshPath(*run, "serve." + std::to_string(::getpid()) + ".sock");
      std::string err;
      if (!st.server->Start(&err) || !st.server->Listen(st.socket, &err)) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n",
                     err.c_str());
        std::exit(1);
      }
      for (int c = 0; c < kConnections; ++c) {
        auto client = std::make_unique<quasii::server::WireClient<3>>();
        if (!client->ConnectUds(st.socket) || !client->Handshake()) {
          std::fprintf(stderr, "perfbench: client connect failed\n");
          std::exit(1);
        }
        st.clients.push_back(std::move(client));
      }
    }
    setup_s.push_back(SecondsSince(t0));
  }
  run->E2E("setup_s", Median(setup_s), "s");
  run->E2E("first_query_ms", Median(first_ms), "ms");
  run->E2E("stream_s", Median(warm_s), "s");
  run->Layer("datagen.ms", Median(datagen_ms), "ms");
  run->Layer("quasii.execute_cold_ms", Median(first_ms), "ms");
  run->Layer("quasii.cracks", double(warm_stats.cracks), "count");
  run->Layer("quasii.objects_moved", double(warm_stats.objects_moved),
             "count");
  if (tr.on()) {
    run->Layer("quasii.queries_to_converge",
               QueriesToConverge(warm_cracks, kConvergeWindow), "count");
  }

  // The served stream: fresh draws from the same clusters, typed by the
  // mix range 70%, point 15%, count 10%, kNN 5%.
  std::size_t total = 0;
  std::vector<std::size_t> window_n;
  for (std::size_t w = 0; w < std::size(kRates); ++w) {
    window_n.push_back(static_cast<std::size_t>(
        kRates[w] * kRateShare[w] * double(run->args.seconds)));
    total += window_n.back();
  }
  quasii::Rng srng(SubSeed(seed, 24));
  const std::vector<Box3> sboxes =
      draw(centres, &srng, static_cast<int>(total / kClusters + 1));
  std::vector<Query3> reads;
  std::vector<Request3> reqs;
  for (std::size_t i = 0; i < total; ++i) {
    const Box3& b = sboxes[i];
    const double u = srng.Uniform(0, 1);
    if (u < 0.70) {
      reads.push_back(quasii::RangeQuery<3>(b));
    } else if (u < 0.85) {
      reads.push_back(quasii::PointQuery<3>(b.Center()));
    } else if (u < 0.95) {
      reads.push_back(quasii::CountQuery<3>(b));
    } else {
      reads.push_back(quasii::KNearestQuery<3>(b.Center(), kKnnK));
    }
    reqs.push_back(Request3::MakeQuery(reads.back()));
  }
  Model<3> model(data);
  Index* ix = st.ix.get();

  if (tr.on()) {
    std::vector<double> cf_us;
    double approved = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      Tracer::Scope s(tr, "quasii.converged_for", i);
      const std::int64_t t0 = NowNs();
      approved += ix->ConvergedFor(reads[i]) ? 1 : 0;
      cf_us.push_back(double(NowNs() - t0) * 1e-3);
    }
    run->Layer("quasii.converged_for_us", Median(cf_us), "us");
    run->Layer("quasii.shared_share", approved / double(reads.size()),
               "ratio");
  }

  const QueryStats before = ix->stats();
  double max_qps = 0, lowest_qps = 0, results = 0;
  std::size_t offset = 0;
  for (std::size_t w = 0; w < std::size(kRates); ++w) {
    const double rate = kRates[w];
    const OpenLoopResult r =
        ServeOpenLoop(run, st.clients, reqs, reads, offset, window_n[w], rate,
                      model);
    results += r.results;
    const bool passes = r.replied == window_n[w] &&
                        r.p99_us <= kLatencyLimitUs &&
                        r.achieved >= 0.95 * rate;
    if (w == 0) lowest_qps = r.achieved;
    if (passes) max_qps = r.achieved;
    std::fprintf(stdout,
                 "rate %.0f/s: %zu requests, p50=%.1fus p99=%.1fus "
                 "achieved=%.1f/s send_lag_p99=%.3fms %s\n",
                 rate, window_n[w], r.p50_us, r.p99_us, r.achieved,
                 r.lag_p99_ms, passes ? "meets the limit" : "misses the limit");
    if (rate == kReferenceRate) {
      run->E2E("query_p50_us", r.p50_us, "us");
      run->E2E("query_p99_us", r.p99_us, "us");
      run->Layer("server.send_lag_ms", r.lag_p99_ms, "ms");
    }
    offset += window_n[w];
  }
  // No rate met the limit: report the lowest rate's achieved throughput.
  run->E2E("max_qps", max_qps > 0 ? max_qps : lowest_qps, "queries/s");
  const auto counters = st.server->counters();
  st.TearDown();
  const QueryStats delta = ix->stats() - before;
  run->Layer("server.batched_share",
             counters.accepted > 0
                 ? double(counters.batched_queries) / double(counters.accepted)
                 : 0,
             "ratio");

  ReportReadWork(run, delta, double(total), results);
  BookInvariants(run, *ix);
  ReportStructure(run, *ix);

  const std::vector<Query3> sample(reads.begin(), reads.begin() + 16);
  MutationTimes mutations;
  std::vector<double> recover_s;
  DurableEpilogue(run, ix, &model, data, sample, &mutations, &recover_s);
  run->E2E("recover_s", recover_s.front(), "s");
  if (tr.on()) {
    std::vector<double> exec_us;
    for (std::size_t i = 0; i < 2000 && i < reads.size(); ++i) {
      const std::int64_t t0 = NowNs();
      ExecuteRead(ix, reads[i]);
      exec_us.push_back(double(NowNs() - t0) * 1e-3);
    }
    run->Layer("quasii.execute_us", Median(exec_us), "us");
    ProbeCrackArray(run, data, sboxes);
    ProbeServing(run, ix, reads, model, false);
  }
}

// ---------------------------------------------------------------------------
// readwrite-durable

/// Operations per stream; a snapshot is taken halfway through each.
constexpr std::size_t kRwOps = 4000;
/// Streams per second of `--seconds` (on a 4-core VM each takes about 3 s,
/// its cold probes, recovery and checks included).
constexpr double kRwRoundsPerSecond = 0.4;
constexpr double kRwSelectivity = 1e-4;
/// Cold probes per stream: before a stream starts, each of the stream's
/// first this many range reads is answered as the first query of its own
/// fresh index. `first_query_ms` is the median over all probes of a run. A
/// stream's own first operation may be any read type or a mutation, and one
/// cold read per stream made the figure follow which type came first.
constexpr std::size_t kRwColdProbes = 4;

void ReadWriteDurable(RunRecord* run) {
  Tracer& tr = run->tracer;
  const std::uint64_t seed = run->args.seed;
  quasii::datagen::UniformDatasetParams dp;
  dp.count = kObjects;
  dp.seed = SubSeed(seed, 31);
  const int rounds = RoundsFor(kRwRoundsPerSecond, run->args.seconds);
  const quasii::Box3 universe = quasii::datagen::UniformUniverse(dp);
  // Round k runs its own draw of the op stream on a fresh index.
  auto make_ops = [&](int k) {
    quasii::datagen::UniformQueryParams qp;
    qp.count = static_cast<int>(kRwOps);
    qp.selectivity = kRwSelectivity;
    qp.seed = SubSeed(seed, 300 + static_cast<std::uint64_t>(k));
    quasii::bench::WorkloadSpec spec;
    spec.mix = quasii::bench::DefaultReadWriteMix();
    spec.knn_k = kKnnK;
    spec.seed = SubSeed(seed, 400 + static_cast<std::uint64_t>(k));
    return quasii::bench::MakeOpWorkload(
        quasii::datagen::MakeUniformQueries(universe, qp), spec, kObjects);
  };

  std::vector<Box3> data;
  std::vector<std::vector<Request3>> streams;
  std::unique_ptr<Index> ix;
  std::vector<double> setup_s, datagen_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    ix.reset();
    Tracer::Scope s(tr, "setup");
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope g(tr, "datagen.generate");
      data = quasii::datagen::MakeUniformDataset(dp);
      streams.clear();
      for (int k = 0; k < rounds; ++k) streams.push_back(make_ops(k));
      datagen_ms.push_back(SecondsSince(t0) * 1e3);
    }
    {
      Tracer::Scope c(tr, "quasii.construct");
      ix = std::make_unique<Index>(data);
      ix->Build();
    }
    setup_s.push_back(SecondsSince(t0));
  }
  run->E2E("setup_s", Median(setup_s), "s");
  run->Layer("datagen.ms", Median(datagen_ms), "ms");

  std::vector<double> first_ms, stream_s, read_us, read_p99, read_qps,
      recover_s, cf_us, cracks, moved, to_converge, snap_ms, snap_bytes;
  double approved = 0, cf_calls = 0, reads_total = 0, results_total = 0;
  QueryStats read_delta;
  MutationTimes mutations;
  std::unique_ptr<Model<3>> model;
  for (int k = 0; k < rounds; ++k) {
    ix.reset();  // one index alive at a time, as in a real restart
    model.reset();
    TrimHeap();
    const std::vector<Request3>& ops = streams[k];
    model = std::make_unique<Model<3>>(data);
    std::size_t probes = 0;
    for (std::size_t i = 0; i < ops.size() && probes < kRwColdProbes; ++i) {
      if (ops[i].is_mutation() ||
          ops[i].query().type() != quasii::QueryType::kRange) {
        continue;
      }
      const Query3& q = ops[i].query();
      Tracer::Scope o(tr, "op.cold_probe", i);
      TrimHeap();
      Index probe(data);
      const std::int64_t t0 = NowNs();
      Answer a;
      {
        Tracer::Scope s(tr, "quasii.execute", i);
        a = ExecuteRead(&probe, q);
      }
      first_ms.push_back(double(NowNs() - t0) * 1e-6);
      Tracer::Scope c(tr, "check.read", i);
      BookRead(run, *model, q, a, true);
      ++probes;
    }
    ix = std::make_unique<Index>(data);
    std::vector<Query3> sample;
    std::vector<double> round_read_us;
    const std::string snap = FreshPath(*run, "stream.snapshot");
    const std::string wal_path = FreshPath(*run, "stream.wal");
    quasii::persist::WalWriter<3> wal;
    run->ops.Attempt("wal");
    if (wal.Open(wal_path, quasii::persist::FsyncPolicy::kEveryN,
                 kFsyncEveryN) != quasii::persist::PersistError::kNone) {
      run->ops.Fail("wal", "cannot open the WAL");
      break;
    }
    std::vector<std::uint64_t> cum_cracks;
    const QueryStats at_start = ix->stats();
    std::int64_t check_ns = 0;
    double read_sum = 0, reads = 0;
    const std::int64_t t_stream = NowNs();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Request3& op = ops[i];
      if (op.is_mutation()) {
        LoggedMutation(run, ix.get(), &wal, model.get(),
                       op.kind() == quasii::RequestKind::kInsert, op.id(),
                       op.box(), i, &mutations);
      } else {
        const Query3& q = op.query();
        Tracer::Scope o(tr, "op.read", i);
        if (tr.on()) {
          Tracer::Scope s(tr, "quasii.converged_for", i);
          const std::int64_t t0 = NowNs();
          approved += ix->ConvergedFor(q) ? 1 : 0;
          cf_us.push_back(double(NowNs() - t0) * 1e-3);
          cf_calls += 1;
        }
        const QueryStats s0 = tr.on() ? ix->stats() : QueryStats{};
        const std::int64_t t0 = NowNs();
        Answer a;
        {
          Tracer::Scope s(tr, "quasii.execute", i);
          a = ExecuteRead(ix.get(), q);
        }
        const double us = double(NowNs() - t0) * 1e-3;
        if (tr.on()) read_delta += ix->stats() - s0;
        read_us.push_back(us);
        round_read_us.push_back(us);
        if (sample.size() < 16) sample.push_back(q);
        read_sum += us * 1e-6;
        reads += 1;
        results_total += double(a.count);
        const std::int64_t tc = NowNs();
        {
          Tracer::Scope c(tr, "check.read", i);
          BookRead(run, *model, q, a, static_cast<std::size_t>(reads - 1) %
                                             kExactEvery == 0);
        }
        check_ns += NowNs() - tc;
      }
      if (tr.on()) cum_cracks.push_back(ix->stats().cracks);
      if (i + 1 == ops.size() / 2) {
        Tracer::Scope s(tr, "snapshot.write", i);
        const std::int64_t t0 = NowNs();
        std::uint64_t bytes = 0;
        run->ops.Attempt("snapshot");
        if (quasii::persist::WriteSnapshot<3>(*ix, snap, &bytes) !=
            quasii::persist::PersistError::kNone) {
          run->ops.Fail("snapshot", "WriteSnapshot failed");
        }
        snap_ms.push_back(SecondsSince(t0) * 1e3);
        snap_bytes.push_back(double(bytes));
      }
    }
    if (wal.Sync() != quasii::persist::PersistError::kNone) {
      run->ops.Fail("wal", "final sync failed");
    }
    stream_s.push_back(SecondsSince(t_stream) - double(check_ns) * 1e-9);
    read_qps.push_back(reads / read_sum);
    read_p99.push_back(Percentile(round_read_us, 99));
    reads_total += reads;
    const QueryStats delta = ix->stats() - at_start;
    cracks.push_back(double(delta.cracks));
    moved.push_back(double(delta.objects_moved));
    if (tr.on()) {
      to_converge.push_back(QueriesToConverge(cum_cracks, kConvergeWindow));
    }
    ReportMutations(run, mutations, wal);
    wal.Close();
    BookInvariants(run, *ix);
    const RecoveryExpectation want{quasii::IndexContentChecksum(*ix),
                                   ix->store().live_count()};
    recover_s.push_back(
        RecoverAndVerify(run, data, snap, wal_path, want, *model, sample));
  }
  run->E2E("first_query_ms", Median(first_ms), "ms");
  run->E2E("stream_s", Median(stream_s), "s");
  run->E2E("query_p50_us", Percentile(read_us, 50), "us");
  // Each stream is one measured window of reads; the p99 is the median over
  // streams.
  run->E2E("query_p99_us", Median(read_p99), "us");
  run->E2E("max_qps", Median(read_qps), "queries/s");
  run->E2E("recover_s", Median(recover_s), "s");
  run->Layer("quasii.execute_cold_ms", Median(first_ms), "ms");
  run->Layer("quasii.execute_us", Median(read_us), "us");
  run->Layer("quasii.converged_for_us", Median(cf_us), "us");
  run->Layer("quasii.shared_share", cf_calls > 0 ? approved / cf_calls : 0,
             "ratio");
  run->Layer("quasii.cracks", Median(cracks), "count");
  run->Layer("quasii.objects_moved", Median(moved), "count");
  run->Layer("quasii.queries_to_converge", Median(to_converge), "count");
  run->Layer("snapshot.write_ms", Median(snap_ms), "ms");
  run->Layer("snapshot.bytes", Median(snap_bytes), "bytes");
  ReportReadWork(run, read_delta, reads_total, results_total);
  ReportStructure(run, *ix);
  if (tr.on()) {
    std::vector<Box3> qboxes;
    std::vector<Query3> reads;
    for (const Request3& op : streams.back()) {
      if (op.is_mutation()) continue;
      reads.push_back(op.query());
      qboxes.push_back(Model<3>::ProbeBox(op.query()));
    }
    ProbeCrackArray(run, data, qboxes);
    ProbeServing(run, ix.get(), reads, *model, true);
  }
}

// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric; see README.md for what each means
/// on each workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"first_query_ms", "ms"},
    {"stream_s", "s"},         {"query_p50_us", "us"},
    {"query_p99_us", "us"},    {"max_qps", "queries/s"},
    {"mutation_p50_us", "us"}, {"recover_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics a workload does not exercise read 0.
constexpr MetricSpec kPerLayer[] = {
    {"datagen.ms", "ms"},
    {"quasii.execute_cold_ms", "ms"},
    {"quasii.execute_us", "us"},
    {"quasii.converged_for_us", "us"},
    {"quasii.shared_share", "ratio"},
    {"quasii.cracks", "count"},
    {"quasii.objects_moved", "count"},
    {"quasii.queries_to_converge", "count"},
    {"quasii.objects_tested", "count"},
    {"quasii.partitions_visited", "count"},
    {"quasii.bytes_scanned", "bytes"},
    {"quasii.results_per_tested", "ratio"},
    {"quasii.leaf_slices", "count"},
    {"quasii.oversized_rows", "count"},
    {"quasii.insert_us", "us"},
    {"quasii.erase_us", "us"},
    {"quasii.column_bytes", "bytes"},
    {"quasii.column_raw_bytes", "bytes"},
    {"crack_array.load_ms", "ms"},
    {"crack_array.crack_ns_per_row", "ns"},
    {"crack_array.median_split_ns_per_row", "ns"},
    {"crack_array.scan_ns_per_row", "ns"},
    {"simd.mask_ns_per_row", "ns"},
    {"simd.compact_ns_per_row", "ns"},
    {"task_scheduler.tasks", "count"},
    {"task_scheduler.steals", "count"},
    {"task_scheduler.threads", "count"},
    {"task_scheduler.first_query_ms", "ms"},
    {"executor.batch_us", "us"},
    {"request.serialize_ns", "ns"},
    {"request.parse_ns", "ns"},
    {"response.serialize_ns", "ns"},
    {"response.parse_ns", "ns"},
    {"response.bytes", "bytes"},
    {"request.execute_us", "us"},
    {"server.ping_rtt_us", "us"},
    {"server.wire_share", "ratio"},
    {"server.batched_share", "ratio"},
    {"server.send_lag_ms", "ms"},
    {"wal.append_us", "us"},
    {"wal.bytes_per_mutation", "bytes"},
    {"wal.syncs", "count"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"recovery.ms", "ms"},
    {"recovery.replayed_records", "count"},
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(kOutDir);
  RunRecord run(args);
  if (args.workload == "cold-uniform") {
    ColdUniform(&run);
  } else if (args.workload == "serve-clustered") {
    ServeClustered(&run);
  } else if (args.workload == "readwrite-durable") {
    ReadWriteDurable(&run);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  run.E2E("peak_rss_mb", PeakRssMiB(), "MiB");
  // Snapshots and WALs are only needed until their recovery is verified.
  for (const auto& f : std::filesystem::directory_iterator(kOutDir)) {
    const std::string ext = f.path().extension().string();
    if (f.path().filename().string().rfind(args.workload + ".", 0) == 0 &&
        (ext == ".snapshot" || ext == ".wal" || ext == ".tmp")) {
      std::error_code ec;
      std::filesystem::remove(f.path(), ec);
    }
  }

  // The report lists exactly the declared metrics, in declared order.
  std::vector<Metric> e2e, layer;
  bool complete = true;
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = run.e2e.find(m.name);
    if (it == run.e2e.end()) {
      std::fprintf(stderr, "perfbench: metric not measured: %s\n", m.name);
      complete = false;
      e2e.push_back(Metric{m.name, 0, m.unit});
    } else {
      e2e.push_back(it->second);
    }
  }
  for (const MetricSpec& m : kPerLayer) {
    const auto it = run.layer.find(m.name);
    layer.push_back(it == run.layer.end() ? Metric{m.name, 0, m.unit}
                                          : it->second);
  }

  const std::string stamp = MachineStamp(args);
  std::printf("stamp %s\n", stamp.c_str());
  run.ops.Print(stdout);
  for (const Metric& m : args.trace ? layer : e2e) {
    std::printf("metric %-38s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace && !run.tracer.WriteJsonLines(run.Path("spans.jsonl"))) {
    std::fprintf(stderr, "perfbench: cannot write the span file\n");
  }
  {
    // Side report for the trace summary: both metric sets of this run.
    std::FILE* f = std::fopen(
        run.Path(std::string("trace") + (args.trace ? "1" : "0") + ".json")
            .c_str(),
        "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"stamp\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
                   stamp.c_str(), MetricsJson(e2e).c_str(),
                   MetricsJson(layer).c_str());
      std::fclose(f);
    }
  }
  const bool correct = run.ops.failed() == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.ops.attempted()),
              static_cast<unsigned long long>(run.ops.failed()),
              MetricsJson(args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
