// Shared plumbing of the QUASII benchmark program: command line, clocks,
// order statistics, operation accounting, the machine stamp, the in-memory
// span tracer and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/task_scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Seconds since `start_ns`.
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

[[noreturn]] inline void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads: cold-uniform, serve-clustered, readwrite-durable\n",
               why);
  std::exit(2);
}

/// Strict whole-value parse of an unsigned decimal flag value.
inline std::uint64_t ParseU64(const std::string& s, const char* flag) {
  if (s.empty() || s.size() > 19 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return std::strtoull(s.c_str(), nullptr, 10);
}

inline Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = ParseU64(value, "--seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = ParseU64(value, "--seconds");
      if (s < 1 || s > 600) Usage("--seconds must be in [1, 600]");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

/// Independent seed for one input of a run, derived from `--seed`.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return quasii::Rng::SplitMix64(seed ^ quasii::Rng::SplitMix64(stream + 1));
}

/// Nearest-rank percentile (`p` in [0, 100]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

inline double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Returns the heap's free pages to the system, as a restarted process
/// would start without them: the next fresh index faults its columns in
/// like one in a new process, and `PeakRssMiB` follows what the current
/// round holds, not the allocator's history of earlier rounds.
inline void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Per-op-type accounting. An operation counts as failed when its response
/// is not OK, when a mutation's verdict disagrees with the benchmark's own
/// model, or when any check of its output fails; each failure keeps its
/// first few reasons for the report.
class OpAccount {
 public:
  void Attempt(const std::string& type) {
    std::lock_guard<std::mutex> lock(mu_);
    ++per_type_[type].first;
  }
  void Fail(const std::string& type, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++per_type_[type].second;
    if (reasons_.size() < 8) reasons_.push_back(type + ": " + why);
  }
  std::uint64_t attempted() const { return Sum(0); }
  std::uint64_t failed() const { return Sum(1); }

  void Print(std::FILE* f) const {
    for (const auto& [type, counts] : per_type_) {
      std::fprintf(f, "ops %-16s attempted=%llu failed=%llu\n", type.c_str(),
                   static_cast<unsigned long long>(counts.first),
                   static_cast<unsigned long long>(counts.second));
    }
    for (const std::string& r : reasons_) {
      std::fprintf(f, "failure %s\n", r.c_str());
    }
  }

 private:
  std::uint64_t Sum(int which) const {
    std::uint64_t s = 0;
    for (const auto& [type, counts] : per_type_) {
      s += which == 0 ? counts.first : counts.second;
    }
    return s;
  }
  std::mutex mu_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_type_;
  std::vector<std::string> reasons_;
};

/// One reported number. `value` keeps every digit it was measured with.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The machine and configuration a result was measured on. Every measured
/// phase runs at the intra-query thread count in effect at the end.
inline std::string MachineStamp(const Args& args) {
  std::ostringstream s;
  s << "{\"cores\": " << std::thread::hardware_concurrency()
    << ", \"simd_tier\": \"" << quasii::simd::TierName(quasii::simd::ActiveTier())
    << "\", \"compiler\": \""
#if defined(__clang__)
    << "clang " << __clang_version__
#elif defined(__GNUC__)
    << "gcc " << __VERSION__
#else
    << "unknown"
#endif
    << "\", \"build_type\": \""
#ifdef NDEBUG
    << "Release"
#else
    << "Debug"
#endif
    << "\", \"exec_threads\": " << quasii::IntraQueryThreads()
    << ", \"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
    << "}";
  return s.str();
}

inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s.precision(17);
  s << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s << ", ";
    s << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  s << "}";
  return s.str();
}

/// In-memory span recorder. Spans are appended to a per-thread buffer (no
/// lock on the hot path) and written out once, after the run. A span
/// carries its name, start and end, the span that was open on the same
/// thread when it began (its parent), and a request id shared by the spans
/// of one operation. When tracing is off every call is a single branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : tracer_(t.on_ ? &t : nullptr) {
      if (tracer_ == nullptr) return;
      span_.name = name;
      span_.request = request;
      span_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
      span_.parent = Current();
      Current() = span_.id;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = NowNs();
      Current() = span_.parent;
      tracer_->Buffer().push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Records a span whose interval was measured by the caller (an open-loop
  /// request is timed from its due time, before any code ran for it).
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request) {
    if (!on_) return;
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = Current();
    s.request = request;
    Buffer().push_back(s);
  }

  /// Writes every span as one JSON object per line. Call after all
  /// recording threads have been joined.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      for (const Span& s : buf->spans) {
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << ", \"thread\": " << buf->thread << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  struct ThreadBuffer {
    int thread = 0;
    std::vector<Span> spans;
  };

  static std::uint32_t& Current() {
    thread_local std::uint32_t current = 0;
    return current;
  }

  std::vector<Span>& Buffer() {
    thread_local Tracer* owner = nullptr;
    thread_local ThreadBuffer* buf = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buf = buffers_.back().get();
      buf->thread = static_cast<int>(buffers_.size()) - 1;
      buf->spans.reserve(1 << 16);
      owner = this;
    }
    return buf->spans;
  }

  bool on_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
