// Unit tests for the AutoTuner facade (automatic RATS parameter
// tuning, the paper's future-work item) and the tune() it calls.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exp/autotune.hpp"
#include "exp/runner.hpp"
#include "exp/tuning.hpp"
#include "platform/grid5000.hpp"

namespace rats {
namespace {

TEST(AutoTuner, ProducesParametersInsideTheSweepGrids) {
  AutoTuner tuner(/*calibration_samples=*/2);
  const Cluster c = grid5000::chti();
  const TunedParams& t = tuner.tuned(DagFamily::Strassen, c);

  const auto grids_contain = [](const std::vector<double>& grid, double v) {
    for (double g : grid)
      if (g == v) return true;
    return false;
  };
  EXPECT_TRUE(grids_contain(tuning_mindeltas(), t.mindelta));
  EXPECT_TRUE(grids_contain(tuning_maxdeltas(), t.maxdelta));
  EXPECT_TRUE(grids_contain(tuning_minrhos(), t.minrho));
}

TEST(AutoTuner, CachesPerFamilyAndCluster) {
  AutoTuner tuner(2);
  const Cluster c = grid5000::chti();
  const TunedParams* first = &tuner.tuned(DagFamily::Strassen, c);
  EXPECT_EQ(tuner.cache_size(), 1u);
  const TunedParams* again = &tuner.tuned(DagFamily::Strassen, c);
  EXPECT_EQ(first, again);  // same cached object, no re-sweep
  EXPECT_EQ(tuner.cache_size(), 1u);
}

TEST(AutoTuner, OptionsCarryTunedValuesAndKind) {
  AutoTuner tuner(2);
  const Cluster c = grid5000::chti();
  const SchedulerOptions o =
      tuner.options(SchedulerKind::RatsTimeCost, DagFamily::Strassen, c);
  const TunedParams& t = tuner.tuned(DagFamily::Strassen, c);
  EXPECT_EQ(o.kind, SchedulerKind::RatsTimeCost);
  EXPECT_DOUBLE_EQ(o.rats.mindelta, t.mindelta);
  EXPECT_DOUBLE_EQ(o.rats.maxdelta, t.maxdelta);
  EXPECT_DOUBLE_EQ(o.rats.minrho, t.minrho);
  EXPECT_TRUE(o.rats.packing);
}

// tune() scores the 20 (mindelta, maxdelta) points and the 6 minrho
// points with packing, the only ones the tuned triple reads, against
// one HCPA reference: 27 runs per corpus entry.
TEST(Tune, ScoresOnlyThePointsItReads) {
  CorpusOptions options;
  options.kernel_samples = 2;
  const auto corpus = build_family(DagFamily::Strassen, options);
  ASSERT_EQ(corpus.size(), 2u);
  const std::uint64_t before = simulated_run_count();
  tune(corpus, grid5000::chti(), 1);
  EXPECT_EQ(simulated_run_count() - before, corpus.size() * 27);
}

TEST(AutoTuner, RejectsZeroCalibrationSamples) {
  EXPECT_THROW(AutoTuner(0), Error);
}

}  // namespace
}  // namespace rats
