// Process-wide metrics registry — the unified observability layer.
//
// Every runtime counter of the pipeline lives here as a *named*
// instrument: counters, gauges, nanosecond timers and fixed-bucket
// histograms, registered once by name and bumped live with relaxed
// atomics.  When metrics are disabled every instrument costs exactly
// one predictable branch (a relaxed load of the process-wide enable
// flag), and nothing is printed or written, so all outputs stay
// byte-identical to an uninstrumented build.
//
// Enablement is process-wide and sticky:
//  * `rats run --metrics/--profile/--progress` enables it for the run;
//  * the RATS_METRICS environment variable enables it at startup.
//
// Counter *values* are run-to-run deterministic (the work they count
// is), with one exception class: counters whose value depends on which
// worker thread claimed which job — the per-thread redistribution-plan
// cache hit/miss tallies — are registered `Stability::Volatile` and
// exported separately, so CI can pin the stable section byte-for-byte.
// Timers are always volatile (they measure wall time).
//
// Handles returned by `counter()` / `gauge()` / `timer()` /
// `histogram()` are stable for the life of the process; call sites
// resolve them once (function-local static reference) and bump through
// the reference on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rats::obs {

/// Whether instruments record.  One relaxed atomic load — the single
/// predictable branch every disabled call site pays.
bool metrics_enabled();

/// Turns recording on (CLI `--metrics`/`--progress`, tests) or off
/// (tests only).  RATS_METRICS is folded in at static init.
void set_metrics_enabled(bool on);

/// Whether a counter's *value* is reproducible across identical runs.
enum class Stability {
  Stable,    ///< deterministic: CI may pin the exact value
  Volatile,  ///< depends on thread scheduling or wall time
};

/// Monotonic event count.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) {
    if (metrics_enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts regardless of the enable flag — for counters that back a
  /// public API contract (simulated_run_count) and must never miss.
  void add_always(std::uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins level (threads in use, corpus size, ...).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (metrics_enabled()) v_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Accumulated wall time in nanoseconds plus the number of laps.
/// Always exported as volatile.
class Timer {
 public:
  void add_ns(std::uint64_t ns) {
    if (metrics_enabled()) {
      ns_.fetch_add(ns, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::uint64_t total_ns() const {
    return ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() {
    ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Fixed-bucket histogram; the caller maps a sample to its bucket
/// index (e.g. the solver's cone-fraction deciles).
class Histogram {
 public:
  explicit Histogram(std::size_t buckets) : buckets_(buckets) {}
  void record(std::size_t bucket) {
    if (metrics_enabled() && bucket < buckets_.size())
      buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t size() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
};

/// Registers (or finds) the named instrument.  Thread-safe; the
/// returned reference is valid for the life of the process.  A name
/// registers as exactly one kind — re-registering it as another kind
/// (or a histogram with a different bucket count) throws rats::Error.
Counter& counter(const std::string& name,
                 Stability stability = Stability::Stable);
Gauge& gauge(const std::string& name,
             Stability stability = Stability::Stable);
Timer& timer(const std::string& name);
Histogram& histogram(const std::string& name, std::size_t buckets);

/// A point-in-time copy of every registered instrument, each section
/// sorted by name.  Counters/gauges split by stability so the stable
/// section can be pinned byte-for-byte across runs.
struct Snapshot {
  struct Value {
    std::string name;
    std::uint64_t value = 0;
  };
  struct SignedValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct TimerValue {
    std::string name;
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Value> counters;           ///< Stability::Stable
  std::vector<Value> volatile_counters;  ///< Stability::Volatile
  std::vector<SignedValue> gauges;       ///< Stability::Stable
  std::vector<SignedValue> volatile_gauges;
  std::vector<TimerValue> timers;
  std::vector<HistogramValue> histograms;  ///< stable
};

Snapshot snapshot();

/// Zeroes every registered instrument (tests; snapshots between runs
/// are normally compared as deltas instead).
void reset();

/// The machine-attribution stamp every exported snapshot carries.
struct BuildStamp {
  std::string hostname;
  std::string build_type;    ///< CMAKE_BUILD_TYPE at compile time
  std::string git_describe;  ///< `git describe --always --dirty` at configure
};
BuildStamp build_stamp();

/// Renders a snapshot as the machine-readable metrics JSON (see the
/// README's Observability chapter for the schema).  `scenario` /
/// `kind` name what was run (empty strings are emitted as empty).
std::string snapshot_json(const Snapshot& snap, const std::string& scenario,
                          const std::string& kind);

}  // namespace rats::obs
