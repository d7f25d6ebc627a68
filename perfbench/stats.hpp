// Statistics of the end-to-end benchmark, kept free of library
// dependencies so stats_test.cpp can pin them on synthetic inputs.
//
//   median           middle of a sample set
//   fastest          each run's least time over the passes that ran it
//   percentile       nearest rank, refusing a percentile that has fewer
//                    than ten samples beyond it
//   band_percentile  mean of the ranks around a percentile
//   pool_usage       busy fraction and tail of a worker pool, from the
//                    per-run begin/end stamps of one pass
//   lateness         how late an open-loop generator sent each request
//   quiet_half       the half of a run's windows with the least
//                    co-tenant interference
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the middle two for an even count); NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Each run's least time over its samples (one per pass; a run without
/// samples reads NaN).  Interference from co-tenants only ever adds
/// time, so a run's fastest pass is its cost on a quiet machine, and
/// passes spread over the whole measurement catch different quiet
/// moments for different runs.
inline std::vector<double> fastest(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> best;
  best.reserve(samples.size());
  for (const std::vector<double>& s : samples)
    best.push_back(s.empty() ? std::nan("")
                             : *std::min_element(s.begin(), s.end()));
  return best;
}

/// Samples a percentile needs beyond its rank before it is reported.
constexpr std::size_t kMinBeyond = 10;

/// The open-loop generator counts as fallen behind once its p90
/// lateness exceeds this share of the p50 latency it measures.
constexpr double kMaxLateShare = 0.25;

/// Nearest-rank percentile `p` in (0, 100): the sample of 1-based rank
/// ceil(p/100 * n).  Empty when fewer than kMinBeyond samples rank
/// above it — such a percentile describes a handful of outliers.
/// Infinite samples (failed requests) sort last, so they count as
/// missing every latency limit.
inline std::optional<double> percentile(std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n == 0 || !(p > 0 && p < 100)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
  if (n - k < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   v.end());
  return v[k - 1];
}

/// Percentiles a band percentile averages over on each side.
constexpr double kBandHalfWidth = 5;

/// Band percentile `p`: the mean of the samples ranked from percentile
/// p - kBandHalfWidth to p + kBandHalfWidth (nearest ranks).  Over a
/// batch of mixed-size runs neighbouring ranks can belong to different
/// size groups; a small shift then moves a plain percentile across the
/// gap between them, while the band mean moves only in proportion.
/// Empty when percentile(v, p) would be refused.
inline std::optional<double> band_percentile(std::vector<double> v, double p) {
  if (!percentile(v, p)) return std::nullopt;
  const auto rank = [n = static_cast<double>(v.size())](double q) {
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 * n - 1e-9)));
  };
  const std::size_t lo = rank(p - kBandHalfWidth);
  const std::size_t hi = rank(p + kBandHalfWidth);
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (std::size_t k = lo; k <= hi; ++k) sum += v[k - 1];
  return sum / static_cast<double>(hi - lo + 1);
}

/// One run of a pool pass: which worker ran it, and when (seconds).
struct Stamp {
  int worker = 0;
  double begin = 0;
  double end = 0;
};

struct PoolUsage {
  double busy_frac = 0;  ///< run time / (workers x pass time)
  double tail_s = 0;     ///< first worker idle for good -> pass end
};

/// Pool usage of one pass over [pass_begin, pass_end] with `workers`
/// workers.  A worker with no stamp was idle for the whole pass.
inline PoolUsage pool_usage(const std::vector<Stamp>& stamps,
                            double pass_begin, double pass_end,
                            int workers) {
  PoolUsage u;
  const double span = pass_end - pass_begin;
  if (workers <= 0 || span <= 0) return u;
  std::vector<double> last_end(static_cast<std::size_t>(workers), pass_begin);
  double busy = 0;
  for (const Stamp& s : stamps) {
    busy += s.end - s.begin;
    if (s.worker >= 0 && s.worker < workers) {
      double& last = last_end[static_cast<std::size_t>(s.worker)];
      last = std::max(last, s.end);
    }
  }
  u.busy_frac = busy / (span * workers);
  u.tail_s = pass_end - *std::min_element(last_end.begin(), last_end.end());
  return u;
}

/// Per-request lateness of an open-loop generator: send time minus due
/// time, clamped at zero (a request sent early was simply on time).
inline std::vector<double> lateness(const std::vector<double>& due,
                                    const std::vector<double>& sent) {
  std::vector<double> late;
  const std::size_t n = std::min(due.size(), sent.size());
  late.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    late.push_back(std::max(0.0, sent[i] - due[i]));
  return late;
}

/// True when the generator fell behind its schedule: its p90 lateness
/// is no longer small against the latency it measures, so the run
/// measured the client rather than the service.  A lateness sample set
/// too small for a p90 counts as fallen behind (nothing to vouch for).
inline bool fell_behind(const std::vector<double>& late, double job_p50) {
  const std::optional<double> p90 = percentile(late, 90);
  return !p90 || *p90 > kMaxLateShare * job_p50;
}

/// Indices of the ceil(n/2) windows with the least interference (e.g.
/// hypervisor steal measured across each window), in window order;
/// ties keep the earlier window.  Latency percentiles over the requests
/// of these windows describe the service, not the neighbours: the
/// selection reads only the interference signal, never the latencies.
inline std::vector<std::size_t> quiet_half(const std::vector<double>& noise) {
  std::vector<std::size_t> idx(noise.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return noise[a] < noise[b];
  });
  idx.resize((noise.size() + 1) / 2);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench
