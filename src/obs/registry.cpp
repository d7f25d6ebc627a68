#include "obs/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "trace/trace.hpp"  // json_escape

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace rats::obs {

namespace {

/// The process-wide enable flag.  Seeded from RATS_METRICS once
/// (static init of a function-local static), flipped by
/// set_metrics_enabled afterwards.
std::atomic<bool>& enable_flag() {
  static std::atomic<bool> enabled{std::getenv("RATS_METRICS") != nullptr};
  return enabled;
}

class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  Counter& counter(const std::string& name, Stability stability) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = counters_.try_emplace(name);
    if (inserted) {
      require_fresh(name, "counter");
      it->second.stability = stability;
    }
    return it->second.v;
  }

  Gauge& gauge(const std::string& name, Stability stability) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = gauges_.try_emplace(name);
    if (inserted) {
      require_fresh(name, "gauge");
      it->second.stability = stability;
    }
    return it->second.v;
  }

  Timer& timer(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = timers_.try_emplace(name);
    if (inserted) require_fresh(name, "timer");
    return it->second;
  }

  Histogram& histogram(const std::string& name, std::size_t buckets) {
    RATS_REQUIRE(buckets > 0, "histogram needs at least one bucket");
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
      RATS_REQUIRE(it->second->size() == buckets,
                   "histogram '" + name +
                       "' re-registered with a different bucket count");
      return *it->second;
    }
    Histogram& h = *histograms_.emplace(name,
                                        std::make_unique<Histogram>(buckets))
                        .first->second;
    require_fresh(name, "histogram");
    return h;
  }

  Snapshot snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot snap;
    for (const auto& [name, entry] : counters_) {
      auto& section = entry.stability == Stability::Stable
                          ? snap.counters
                          : snap.volatile_counters;
      section.push_back({name, entry.v.value()});
    }
    for (const auto& [name, entry] : gauges_) {
      auto& section = entry.stability == Stability::Stable
                          ? snap.gauges
                          : snap.volatile_gauges;
      section.push_back({name, entry.v.value()});
    }
    for (const auto& [name, t] : timers_)
      snap.timers.push_back({name, t.total_ns(), t.count()});
    for (const auto& [name, h] : histograms_) {
      Snapshot::HistogramValue hv;
      hv.name = name;
      hv.buckets.reserve(h->size());
      for (std::size_t b = 0; b < h->size(); ++b)
        hv.buckets.push_back(h->bucket(b));
      snap.histograms.push_back(std::move(hv));
    }
    // std::map iteration is already name-sorted; the sections inherit
    // the order, which is what makes exported snapshots byte-stable.
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, entry] : counters_) entry.v.reset();
    for (auto& [name, entry] : gauges_) entry.v.reset();
    for (auto& [name, t] : timers_) t.reset();
    for (auto& [name, h] : histograms_) h->reset();
  }

 private:
  struct CounterEntry {
    Counter v;
    Stability stability = Stability::Stable;
  };
  struct GaugeEntry {
    Gauge v;
    Stability stability = Stability::Stable;
  };

  /// One name, one kind: a name just inserted into one section must
  /// not already exist in any other.
  void require_fresh(const std::string& name, const char* kind) {
    const int hits = (counters_.count(name) ? 1 : 0) +
                     (gauges_.count(name) ? 1 : 0) +
                     (timers_.count(name) ? 1 : 0) +
                     (histograms_.count(name) ? 1 : 0);
    RATS_REQUIRE(hits == 1, "metric '" + name +
                                "' already registered as another kind (now "
                                "requested as " +
                                kind + ")");
  }

  std::mutex mu_;
  // std::map: stable references on insert AND deterministic
  // (name-sorted) snapshot order.  Histograms are not movable
  // (vector<atomic>), so they sit behind a unique_ptr.
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

void append_values(std::string& out, const char* key,
                   const std::vector<Snapshot::Value>& values) {
  out += std::string("\"") + key + "\":{";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += std::string(i ? "," : "") + "\n  \"" +
           json_escape(values[i].name) +
           "\":" + std::to_string(values[i].value);
  out += values.empty() ? "},\n" : "\n },\n";
}

void append_signed(std::string& out, const char* key,
                   const std::vector<Snapshot::SignedValue>& values) {
  out += std::string("\"") + key + "\":{";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += std::string(i ? "," : "") + "\n  \"" +
           json_escape(values[i].name) +
           "\":" + std::to_string(values[i].value);
  out += values.empty() ? "},\n" : "\n },\n";
}

}  // namespace

bool metrics_enabled() {
  return enable_flag().load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  enable_flag().store(on, std::memory_order_relaxed);
}

Counter& counter(const std::string& name, Stability stability) {
  return Registry::instance().counter(name, stability);
}

Gauge& gauge(const std::string& name, Stability stability) {
  return Registry::instance().gauge(name, stability);
}

Timer& timer(const std::string& name) {
  return Registry::instance().timer(name);
}

Histogram& histogram(const std::string& name, std::size_t buckets) {
  return Registry::instance().histogram(name, buckets);
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

void reset() { Registry::instance().reset(); }

BuildStamp build_stamp() {
  BuildStamp stamp;
#if defined(__unix__) || defined(__APPLE__)
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) == 0 && host[0] != '\0')
    stamp.hostname = host;
#endif
  if (stamp.hostname.empty()) stamp.hostname = "unknown";
#ifdef RATS_BUILD_TYPE
  stamp.build_type = RATS_BUILD_TYPE;
#else
  stamp.build_type = "unknown";
#endif
#ifdef RATS_GIT_DESCRIBE
  stamp.git_describe = RATS_GIT_DESCRIBE;
#else
  stamp.git_describe = "unknown";
#endif
  return stamp;
}

std::string snapshot_json(const Snapshot& snap, const std::string& scenario,
                          const std::string& kind) {
  const BuildStamp stamp = build_stamp();
  std::string out = "{\"rats_metrics\":1,\n";
  out += "\"meta\":{\"scenario\":\"" + json_escape(scenario) +
         "\",\"kind\":\"" + json_escape(kind) + "\",\"hostname\":\"" +
         json_escape(stamp.hostname) + "\",\"build\":\"" +
         json_escape(stamp.build_type) + "\",\"git\":\"" +
         json_escape(stamp.git_describe) +
         "\",\"created_unix\":" + std::to_string(std::time(nullptr)) +
         "},\n";
  append_values(out, "counters", snap.counters);
  out += "\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += std::string(i ? "," : "") + "\n  \"" + json_escape(h.name) +
           "\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      out += std::string(b ? "," : "") + std::to_string(h.buckets[b]);
    out += "]";
  }
  out += snap.histograms.empty() ? "},\n" : "\n },\n";
  append_signed(out, "gauges", snap.gauges);
  // Everything below this line is expected to differ between runs.
  append_values(out, "volatile_counters", snap.volatile_counters);
  append_signed(out, "volatile_gauges", snap.volatile_gauges);
  out += "\"timers\":{";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    const auto& t = snap.timers[i];
    out += std::string(i ? "," : "") + "\n  \"" + json_escape(t.name) +
           "\":{\"ns\":" + std::to_string(t.ns) +
           ",\"count\":" + std::to_string(t.count) + "}";
  }
  out += snap.timers.empty() ? "}\n" : "\n }\n";
  out += "}\n";
  return out;
}

}  // namespace rats::obs
