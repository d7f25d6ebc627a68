// Self-tests of the benchmark's statistics (stats.hpp).
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void median_of_passes() {
  using perfbench::median;
  check(near(median({9.7, 8.6, 10.2}), 9.7), "median of three passes");
  check(near(median({4, 1, 3, 2}), 2.5), "even count averages the middle");
  check(near(median({5}), 5), "single pass");
  check(std::isnan(median({})), "no passes is NaN");
  // One slow pass (a cold cache, a noisy neighbour) does not move it.
  check(near(median({9.1, 9.2, 30.0}), 9.2), "outlier pass is ignored");
}

void fastest_pass_per_run() {
  // Three runs over three passes; pass 1 was slowed for run 0, pass 0
  // for run 2 — each run keeps its own quiet pass.
  const std::vector<double> best = perfbench::fastest(
      {{5.0, 6.5, 5.1}, {20.0, 19.5, 21.0}, {3.3, 2.9, 3.0}});
  check(best.size() == 3 && near(best[0], 5.0) && near(best[1], 19.5) &&
            near(best[2], 2.9),
        "each run keeps its fastest pass");
  const std::vector<double> none = perfbench::fastest({{}, {1.0}});
  check(none.size() == 2 && std::isnan(none[0]) && near(none[1], 1.0),
        "a run without samples reads NaN");
}

void percentiles() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(percentile(v, 90) && near(*percentile(v, 90), 90),
        "p90 of 1..100 is 90 (ten beyond)");
  check(percentile(v, 50) && near(*percentile(v, 50), 50), "p50 of 1..100");
  v.pop_back();  // 99 samples: p90 has rank 90 and only nine beyond
  check(!percentile(v, 90), "p90 refused with nine samples beyond");
  check(!percentile(std::vector<double>(19, 1.0), 50),
        "p50 refused below twenty samples");
  check(percentile(std::vector<double>(20, 1.0), 50).has_value(),
        "p50 reported at twenty samples");
  check(!percentile({}, 50), "empty set refused");
  // Failed requests are infinite and count as missing every limit.
  std::vector<double> with_failures(100, 10.0);
  for (int i = 0; i < 11; ++i)
    with_failures[static_cast<std::size_t>(i)] =
        std::numeric_limits<double>::infinity();
  check(std::isinf(*percentile(with_failures, 90)),
        "eleven failed of 100 push p90 to infinity");
  check(near(*percentile(with_failures, 50), 10.0), "p50 unaffected");
}

void band_percentiles() {
  using perfbench::band_percentile;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(band_percentile(v, 50) && near(*band_percentile(v, 50), 50),
        "band p50 of 1..100 averages ranks 45..55");
  check(band_percentile(v, 90) && near(*band_percentile(v, 90), 90),
        "band p90 of 1..100 averages ranks 85..95");
  // Two size groups with a gap at rank 90: one run moving across the
  // gap flips the plain p90 between groups but moves the band by 1/11
  // of the gap.
  std::vector<double> groups(100, 1.0);
  for (int i = 90; i < 100; ++i) groups[static_cast<std::size_t>(i)] = 100.0;
  std::vector<double> shifted = groups;
  shifted[89] = 100.0;
  check(near(*perfbench::percentile(groups, 90), 1.0) &&
            near(*perfbench::percentile(shifted, 90), 100.0),
        "plain p90 jumps across the gap");
  check(near(*band_percentile(shifted, 90) - *band_percentile(groups, 90),
             99.0 / 11.0),
        "band p90 moves by one sample's share");
  v.pop_back();  // refused exactly when the plain percentile is
  check(!band_percentile(v, 90), "band p90 refused with nine beyond");
}

void pool_usage() {
  using perfbench::Stamp;
  // Two workers over [0, 10]: worker 0 busy 0-9, worker 1 busy 0-4 and
  // then idle for good, so the tail runs from 4 to 10.
  const std::vector<Stamp> stamps{{0, 0, 5}, {1, 0, 4}, {0, 5, 9}};
  const auto u = perfbench::pool_usage(stamps, 0, 10, 2);
  check(near(u.busy_frac, 13.0 / 20.0), "busy fraction 13 of 20");
  check(near(u.tail_s, 6.0), "tail from first idle-for-good worker");
  // A worker that never ran was idle for the whole pass.
  const auto idle = perfbench::pool_usage({{0, 1, 3}}, 1, 3, 2);
  check(near(idle.busy_frac, 0.5), "idle worker halves busy fraction");
  check(near(idle.tail_s, 2.0), "idle worker makes the whole pass tail");
  const auto perfect =
      perfbench::pool_usage({{0, 0, 2}, {1, 0, 2}}, 0, 2, 2);
  check(near(perfect.busy_frac, 1.0) && near(perfect.tail_s, 0.0),
        "balanced pass has no tail");
}

void open_loop_lateness() {
  const std::vector<double> due{0.0, 0.1, 0.2};
  const std::vector<double> sent{0.0005, 0.0995, 0.23};
  const auto late = perfbench::lateness(due, sent);
  check(late.size() == 3 && near(late[0], 0.0005) && near(late[1], 0.0) &&
            near(late[2], 0.03),
        "lateness is send minus due, early sends clamp to zero");
  std::vector<double> small(100, 0.5);  // ms
  check(!perfbench::fell_behind(small, 40.0), "0.5 ms late is on schedule");
  small[95] = 30;  // a few stalls above p90 do not count
  check(!perfbench::fell_behind(small, 40.0), "stalls beyond p90 tolerated");
  std::vector<double> behind(100, 15.0);
  check(perfbench::fell_behind(behind, 40.0), "15 ms late of 40 fell behind");
  check(perfbench::fell_behind(std::vector<double>(50, 0.1), 40.0),
        "too few requests to vouch for the generator");
}

void quiet_windows() {
  using perfbench::quiet_half;
  const std::vector<std::size_t> kept = quiet_half({0.04, 0.0, 0.01, 0.05});
  check(kept == std::vector<std::size_t>({1, 2}), "two quietest of four");
  check(quiet_half({0.02, 0.01, 0.03}) == std::vector<std::size_t>({0, 1}),
        "odd count keeps the larger half");
  check(quiet_half({0.0, 0.0, 0.0, 0.0}) == std::vector<std::size_t>({0, 1}),
        "ties keep the earlier windows");
  check(quiet_half({}).empty(), "no windows");
}

}  // namespace

int main() {
  median_of_passes();
  fastest_pass_per_run();
  percentiles();
  band_percentiles();
  pool_usage();
  open_loop_lateness();
  quiet_windows();
  if (failures == 0) std::printf("perfbench stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
