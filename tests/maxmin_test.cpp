// Unit and property tests for the Max-Min fair bandwidth-sharing solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/maxmin.hpp"

namespace rats {
namespace {

FlowDemand flow(std::vector<std::int32_t> links,
                Rate cap = std::numeric_limits<Rate>::infinity()) {
  return FlowDemand{std::move(links), cap};
}

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  const auto rates = maxmin_fair_rates({100.0}, {flow({0})});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(MaxMin, TwoFlowsShareEvenly) {
  const auto rates = maxmin_fair_rates({100.0}, {flow({0}), flow({0})});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMin, MinimumAcrossLinks) {
  // Flow crosses a 100 and a 40 link alone: bottleneck is 40.
  const auto rates = maxmin_fair_rates({100.0, 40.0}, {flow({0, 1})});
  EXPECT_DOUBLE_EQ(rates[0], 40.0);
}

TEST(MaxMin, ClassicParkingLot) {
  // Long flow crosses both links; two short flows cross one each.
  // Max-min: every flow gets 50 on each 100-capacity link.
  const auto rates = maxmin_fair_rates(
      {100.0, 100.0}, {flow({0, 1}), flow({0}), flow({1})});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(MaxMin, UnbalancedBottleneckFreesCapacity) {
  // Link 0 (cap 30) carries flows A,B; link 1 (cap 100) carries B,C.
  // A,B limited to 15 by link 0; C then gets 85 on link 1.
  const auto rates = maxmin_fair_rates(
      {30.0, 100.0}, {flow({0}), flow({0, 1}), flow({1})});
  EXPECT_DOUBLE_EQ(rates[0], 15.0);
  EXPECT_DOUBLE_EQ(rates[1], 15.0);
  EXPECT_DOUBLE_EQ(rates[2], 85.0);
}

TEST(MaxMin, FlowCapRespected) {
  const auto rates = maxmin_fair_rates({100.0}, {flow({0}, 10.0), flow({0})});
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);  // the uncapped flow picks up the rest
}

TEST(MaxMin, CapAboveShareHasNoEffect) {
  const auto rates =
      maxmin_fair_rates({100.0}, {flow({0}, 80.0), flow({0}, 90.0)});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMin, LoopbackFlowGetsItsCap) {
  const auto rates = maxmin_fair_rates({100.0}, {flow({}, 42.0)});
  EXPECT_DOUBLE_EQ(rates[0], 42.0);
}

TEST(MaxMin, LoopbackUncappedIsInfinite) {
  const auto rates = maxmin_fair_rates({}, {flow({})});
  EXPECT_TRUE(std::isinf(rates[0]));
}

TEST(MaxMin, NoFlowsNoRates) {
  EXPECT_TRUE(maxmin_fair_rates({10.0}, {}).empty());
}

TEST(MaxMin, RejectsUnknownLink) {
  EXPECT_THROW(maxmin_fair_rates({10.0}, {flow({3})}), Error);
}

TEST(MaxMin, RejectsZeroCapacityUsedLink) {
  EXPECT_THROW(maxmin_fair_rates({0.0}, {flow({0})}), Error);
}

TEST(MaxMin, ThreeLevelHierarchyOfBottlenecks) {
  // Links: 0 (cap 12, flows A,B,C), 1 (cap 10, flows B), 2 (cap 2, C).
  // C is limited to 2 by link 2; A and B then share the remaining 10
  // of link 0 -> 5 each (B's link 1 is not binding at 5).
  const auto rates = maxmin_fair_rates(
      {12.0, 10.0, 2.0}, {flow({0}), flow({0, 1}), flow({0, 2})});
  EXPECT_DOUBLE_EQ(rates[2], 2.0);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

// ---------------------------------------------------------- properties

struct RandomCase {
  int links;
  int flows;
  std::uint64_t seed;
};

class MaxMinProperties : public ::testing::TestWithParam<RandomCase> {};

TEST_P(MaxMinProperties, FeasibleCapRespectingAndMaxMinOptimal) {
  const auto param = GetParam();
  Rng rng(param.seed);
  std::vector<Rate> capacity;
  for (int l = 0; l < param.links; ++l)
    capacity.push_back(rng.uniform(10.0, 200.0));
  std::vector<FlowDemand> flows;
  for (int f = 0; f < param.flows; ++f) {
    FlowDemand d;
    const int route_len = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < route_len; ++i) {
      const auto link =
          static_cast<std::int32_t>(rng.uniform_int(0, param.links - 1));
      if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
        d.links.push_back(link);
    }
    if (rng.bernoulli(0.3)) d.cap = rng.uniform(5.0, 100.0);
    flows.push_back(std::move(d));
  }

  const auto rates = maxmin_fair_rates(capacity, flows);
  ASSERT_EQ(rates.size(), flows.size());

  // Feasibility: no link oversubscribed.
  std::vector<double> used(capacity.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f)
    for (auto l : flows[f].links) used[static_cast<std::size_t>(l)] += rates[f];
  for (std::size_t l = 0; l < capacity.size(); ++l)
    EXPECT_LE(used[l], capacity[l] * (1 + 1e-9));

  // Cap respect and positivity.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(rates[f], flows[f].cap * (1 + 1e-9));
    EXPECT_GT(rates[f], 0.0);
  }

  // Max-min optimality: every flow is either at its cap or crosses a
  // saturated link where its rate is maximal among that link's flows.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (rates[f] >= flows[f].cap * (1 - 1e-9)) continue;
    bool bottlenecked = false;
    for (auto l : flows[f].links) {
      const auto li = static_cast<std::size_t>(l);
      if (used[li] < capacity[li] * (1 - 1e-9)) continue;
      double max_on_link = 0;
      for (std::size_t g = 0; g < flows.size(); ++g)
        if (std::find(flows[g].links.begin(), flows[g].links.end(), l) !=
            flows[g].links.end())
          max_on_link = std::max(max_on_link, rates[g]);
      if (rates[f] >= max_on_link * (1 - 1e-9)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, MaxMinProperties,
    ::testing::Values(RandomCase{1, 2, 1}, RandomCase{2, 4, 2},
                      RandomCase{3, 8, 3}, RandomCase{5, 16, 4},
                      RandomCase{8, 32, 5}, RandomCase{10, 64, 6},
                      RandomCase{4, 12, 7}, RandomCase{6, 24, 8},
                      RandomCase{12, 48, 9}, RandomCase{16, 100, 10}));

// ------------------------------------------------------- differential
// The incremental heap-driven solver must agree with the reference
// progressive-filling implementation on randomized instances spanning
// degenerate (1 link), sparse, dense, capped and tied configurations.

TEST(MaxMinDifferential, IncrementalMatchesReferenceOnRandomInstances) {
  Rng rng(0xD1FFu);
  for (int instance = 0; instance < 200; ++instance) {
    const int num_links = static_cast<int>(rng.uniform_int(1, 40));
    const int num_flows = static_cast<int>(rng.uniform_int(1, 120));

    std::vector<Rate> capacity;
    for (int l = 0; l < num_links; ++l) {
      // Mix smooth capacities with round ones so exact fair-share ties
      // (the order-dependence trap) actually occur.
      capacity.push_back(rng.bernoulli(0.3)
                             ? 100.0
                             : rng.uniform(1.0, 500.0));
    }

    std::vector<FlowDemand> flows;
    for (int f = 0; f < num_flows; ++f) {
      FlowDemand d;
      const int route_len = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < route_len; ++i) {
        const auto link =
            static_cast<std::int32_t>(rng.uniform_int(0, num_links - 1));
        if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
          d.links.push_back(link);
      }
      if (rng.bernoulli(0.4)) d.cap = rng.uniform(0.5, 300.0);
      flows.push_back(std::move(d));
    }

    const auto expected = maxmin_fair_rates_reference(capacity, flows);
    const auto actual = maxmin_fair_rates(capacity, flows);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f) {
      if (std::isinf(expected[f])) {
        EXPECT_TRUE(std::isinf(actual[f]))
            << "instance " << instance << " flow " << f;
        continue;
      }
      const double scale = std::max({1.0, expected[f], actual[f]});
      EXPECT_NEAR(actual[f], expected[f], 1e-9 * scale)
          << "instance " << instance << " flow " << f << " (links="
          << num_links << ", flows=" << num_flows << ")";
    }
  }
}

TEST(MaxMinDifferential, SolverScratchIsReusableAcrossSolves) {
  MaxMinSolver solver;
  Rng rng(77);
  std::vector<Rate> rates;
  for (int round = 0; round < 20; ++round) {
    const int num_links = static_cast<int>(rng.uniform_int(1, 12));
    const int num_flows = static_cast<int>(rng.uniform_int(1, 30));
    std::vector<Rate> capacity;
    for (int l = 0; l < num_links; ++l)
      capacity.push_back(rng.uniform(10.0, 200.0));
    std::vector<FlowDemand> flows;
    for (int f = 0; f < num_flows; ++f) {
      FlowDemand d;
      d.links.push_back(
          static_cast<std::int32_t>(rng.uniform_int(0, num_links - 1)));
      if (rng.bernoulli(0.25)) d.cap = rng.uniform(1.0, 100.0);
      flows.push_back(std::move(d));
    }
    solver.solve(capacity, flows, rates);
    const auto expected = maxmin_fair_rates_reference(capacity, flows);
    ASSERT_EQ(rates.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f) {
      const double scale = std::max({1.0, expected[f], rates[f]});
      EXPECT_NEAR(rates[f], expected[f], 1e-9 * scale) << "round " << round;
    }
  }
}

// ---------------------------------------------- component decomposition
// Max-Min rates decompose exactly over connected components of the
// flow/link sharing graph: solving one component's flows alone (the
// fluid network's component-scoped re-solve) must reproduce the full
// solve bit for bit.  Exercises both subset entry points: the
// route-view overload and the adjacency-sharing overload.

TEST(MaxMinDifferential, ComponentScopedSolvesMatchFullSolve) {
  Rng rng(0xC04Au);
  MaxMinSolver full_solver;
  MaxMinSolver subset_solver;
  for (int instance = 0; instance < 200; ++instance) {
    const int num_links = static_cast<int>(rng.uniform_int(2, 40));
    const int num_flows = static_cast<int>(rng.uniform_int(1, 120));

    std::vector<Rate> capacity;
    for (int l = 0; l < num_links; ++l)
      capacity.push_back(rng.bernoulli(0.3) ? 100.0 : rng.uniform(1.0, 500.0));

    std::vector<FlowDemand> flows;
    for (int f = 0; f < num_flows; ++f) {
      FlowDemand d;
      const int route_len = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < route_len; ++i) {
        const auto link =
            static_cast<std::int32_t>(rng.uniform_int(0, num_links - 1));
        if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
          d.links.push_back(link);
      }
      // Mix unbindable caps (above any capacity) with binding ones so
      // both the cap-skip and the cap-fixing paths are exercised.
      if (rng.bernoulli(0.3))
        d.cap = rng.bernoulli(0.5) ? rng.uniform(600.0, 1000.0)
                                   : rng.uniform(0.5, 300.0);
      flows.push_back(std::move(d));
    }

    std::vector<Rate> full;
    full_solver.solve(capacity, flows, full);

    // Connected components of the sharing graph via union-find on links.
    std::vector<int> parent(static_cast<std::size_t>(num_links));
    for (int l = 0; l < num_links; ++l) parent[static_cast<std::size_t>(l)] = l;
    std::function<int(int)> find = [&](int x) {
      while (parent[static_cast<std::size_t>(x)] != x)
        x = parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      return x;
    };
    for (const auto& d : flows)
      for (std::size_t i = 1; i < d.links.size(); ++i)
        parent[static_cast<std::size_t>(find(d.links[i]))] = find(d.links[0]);

    std::map<int, std::vector<std::int32_t>> groups;  // root -> flow ids
    for (std::size_t f = 0; f < flows.size(); ++f)
      groups[find(flows[f].links.front())].push_back(
          static_cast<std::int32_t>(f));

    for (const auto& [root, ids] : groups) {
      // Route-view subset solve.
      std::vector<FlowDemandView> views;
      for (const std::int32_t f : ids)
        views.push_back(FlowDemandView{
            flows[static_cast<std::size_t>(f)].links.data(),
            static_cast<std::int32_t>(
                flows[static_cast<std::size_t>(f)].links.size()),
            flows[static_cast<std::size_t>(f)].cap});
      std::vector<Rate> sub(ids.size());
      subset_solver.solve(capacity, views.data(), views.size(), sub.data());
      for (std::size_t k = 0; k < ids.size(); ++k)
        EXPECT_DOUBLE_EQ(sub[k], full[static_cast<std::size_t>(ids[k])])
            << "instance " << instance << " flow " << ids[k];

      // Adjacency-sharing subset solve over the same component.
      std::vector<std::vector<std::int32_t>> link_flows(
          static_cast<std::size_t>(num_links));
      std::vector<std::int32_t> local_of(flows.size(), -1);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        local_of[static_cast<std::size_t>(ids[k])] =
            static_cast<std::int32_t>(k);
        for (const auto l : flows[static_cast<std::size_t>(ids[k])].links)
          link_flows[static_cast<std::size_t>(l)].push_back(ids[k]);
      }
      std::vector<Rate> shared(ids.size());
      subset_solver.solve(capacity, views.data(), views.size(), shared.data(),
                          link_flows, local_of);
      for (std::size_t k = 0; k < ids.size(); ++k)
        EXPECT_DOUBLE_EQ(shared[k], full[static_cast<std::size_t>(ids[k])])
            << "instance " << instance << " flow " << ids[k] << " (adjacency)";
    }
  }
}

// ----------------------------------------------------- warm re-solves
// A traced solve plus solve_warm over a small population delta must
// reproduce a from-scratch solve of the new population bit for bit, on
// two-link (flat-cluster) and multi-hop populations alike.

TEST(MaxMinDifferential, WarmResolveMatchesColdBitwise) {
  Rng rng(0x3A4Du);
  MaxMinSolver warm_solver;
  MaxMinSolver cold_solver;
  int warm_successes = 0;
  for (int instance = 0; instance < 200; ++instance) {
    const bool two_link_only = rng.bernoulli(0.5);
    const int num_links = static_cast<int>(rng.uniform_int(2, 40));
    const int num_flows = static_cast<int>(rng.uniform_int(2, 100));
    std::vector<Rate> capacity;
    for (int l = 0; l < num_links; ++l)
      capacity.push_back(rng.bernoulli(0.4) ? 100.0 : rng.uniform(1.0, 500.0));

    // Population keyed by stable ids.
    std::vector<FlowDemand> flows;
    std::vector<std::int32_t> ids;
    std::int32_t next_id = 0;
    const auto random_flow = [&] {
      FlowDemand d;
      const int route_len =
          two_link_only ? 2 : static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < route_len; ++i) {
        auto link =
            static_cast<std::int32_t>(rng.uniform_int(0, num_links - 1));
        if (two_link_only && !d.links.empty() && link == d.links.front())
          link = (link + 1) % num_links;
        if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
          d.links.push_back(link);
      }
      if (rng.bernoulli(0.35))
        d.cap = rng.bernoulli(0.5) ? rng.uniform(600.0, 1000.0)
                                   : rng.uniform(0.5, 300.0);
      return d;
    };
    for (int f = 0; f < num_flows; ++f) {
      flows.push_back(random_flow());
      ids.push_back(next_id++);
    }

    const auto make_views = [&](const std::vector<FlowDemand>& population) {
      std::vector<FlowDemandView> views;
      for (const auto& d : population)
        views.push_back(FlowDemandView{
            d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
      return views;
    };

    // Initial traced solve; rate_of tracks the warm path's view of
    // every live flow's rate.
    MaxMinWarmState state;
    std::map<std::int32_t, Rate> rate_of;
    {
      auto views = make_views(flows);
      std::vector<Rate> rates(flows.size());
      warm_solver.solve(capacity, views.data(), views.size(), rates.data(),
                        &state, ids.data());
      for (std::size_t f = 0; f < flows.size(); ++f)
        rate_of[ids[f]] = rates[f];
    }

    std::vector<std::pair<std::int32_t, Rate>> changed;
    for (int event = 0; event < 8; ++event) {
      // Random small delta: 0-2 departures and 0-2 arrivals (not both
      // empty).
      std::vector<std::int32_t> deps;
      std::vector<FlowDemand> arriving;
      std::vector<std::int32_t> arriving_ids;
      const int nd = flows.empty()
                         ? 0
                         : static_cast<int>(rng.uniform_int(0, 2));
      for (int q = 0; q < nd && !flows.empty(); ++q) {
        const auto victim =
            static_cast<std::size_t>(rng.uniform_int(0, flows.size() - 1));
        deps.push_back(ids[victim]);
        flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(victim));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      int na = static_cast<int>(rng.uniform_int(0, 2));
      if (deps.empty() && na == 0) na = 1;
      for (int q = 0; q < na; ++q) {
        arriving.push_back(random_flow());
        arriving_ids.push_back(next_id++);
      }

      std::vector<FlowArrival> arrivals;
      for (std::size_t a = 0; a < arriving.size(); ++a)
        arrivals.push_back(FlowArrival{
            arriving_ids[a], arriving[a].links.data(),
            static_cast<std::int32_t>(arriving[a].links.size()),
            arriving[a].cap});

      changed.clear();
      const bool ok = warm_solver.solve_warm(
          capacity, state, arrivals.data(), arrivals.size(), deps.data(),
          deps.size(), changed);
      for (std::size_t a = 0; a < arriving.size(); ++a) {
        flows.push_back(std::move(arriving[a]));
        ids.push_back(arriving_ids[a]);
      }
      for (const std::int32_t d : deps) rate_of.erase(d);
      if (ok) {
        ++warm_successes;
        for (const auto& [id, r] : changed) rate_of[id] = r;
      } else {
        // Fallback: traced cold solve, exactly as the fluid network
        // would.
        auto views = make_views(flows);
        std::vector<Rate> rates(flows.size());
        warm_solver.solve(capacity, views.data(), views.size(), rates.data(),
                          &state, ids.data());
        for (std::size_t f = 0; f < flows.size(); ++f)
          rate_of[ids[f]] = rates[f];
      }

      // Oracle: fresh cold solve of the new population.
      auto views = make_views(flows);
      std::vector<Rate> expected(flows.size());
      cold_solver.solve(capacity, views.data(), views.size(), expected.data());
      ASSERT_EQ(rate_of.size(), flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f)
        EXPECT_EQ(rate_of[ids[f]], expected[f])
            << "instance " << instance << " event " << event << " flow id "
            << ids[f] << (two_link_only ? " (two-link routes)" : "");
    }
  }
  // The point of the test is the warm path: a solid share of the
  // deltas must take it (deep cascades legitimately fall back; these
  // dense random instances cascade far more than cluster traffic).
  EXPECT_GT(warm_successes, 400);
}

// ------------------------------------------------- deep-cone deltas
// Deltas whose divergence round is at (or near) the very start of the
// recorded trace: the warm re-solve undoes essentially the whole trace,
// splices the rounds outside the delta's dependency cone straight from
// the record and must still match a cold solve bit for bit.

TEST(MaxMinDifferential, ConeSurvivesEarlyFixedDeparture) {
  MaxMinSolver solver;
  MaxMinSolver cold_solver;
  // Link 0 is a tiny dedicated bottleneck: its flow fixes in round 0,
  // so departing it undoes every later round of the trace.
  std::vector<Rate> capacity{1.0};
  std::vector<FlowDemand> flows{flow({0})};
  for (std::int32_t l = 1; l <= 20; ++l) {
    capacity.push_back(100.0);
    flows.push_back(flow({l}));
    flows.push_back(flow({l}));
  }
  std::vector<std::int32_t> ids(flows.size());
  for (std::size_t f = 0; f < ids.size(); ++f)
    ids[f] = static_cast<std::int32_t>(f);
  std::vector<FlowDemandView> views;
  for (const auto& d : flows)
    views.push_back(FlowDemandView{
        d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
  MaxMinWarmState state;
  std::vector<Rate> rates(flows.size());
  solver.solve(capacity, views.data(), views.size(), rates.data(), &state,
               ids.data());

  const std::int32_t departing = 0;
  std::vector<std::pair<std::int32_t, Rate>> changed;
  ASSERT_TRUE(solver.solve_warm(capacity, state, nullptr, 0, &departing, 1,
                                changed));

  std::map<std::int32_t, Rate> rate_of;
  for (std::size_t f = 1; f < flows.size(); ++f) rate_of[ids[f]] = rates[f];
  for (const auto& [id, r] : changed) rate_of[id] = r;
  std::vector<Rate> expected(flows.size() - 1);
  cold_solver.solve(capacity, views.data() + 1, views.size() - 1,
                    expected.data());
  for (std::size_t f = 1; f < flows.size(); ++f)
    EXPECT_EQ(rate_of[ids[f]], expected[f - 1]) << "flow id " << ids[f];
}

// Randomized deep-cone battery: every instance plants an early-fixed
// flow on a private tiny link, loads half the population with binding
// caps (whose early cap rounds cascade deep undos), and replays
// merge-then-depart sequences — an arrival bridging two link groups,
// departed again two events later.  The warm re-solve must take every
// delta (it has no trace-fraction decline) and reproduce a cold solve
// of the new population bit for bit.

TEST(MaxMinDifferential, ConeDeepCascadesMatchColdBitwise) {
  Rng rng(0x51CEu);
  MaxMinSolver warm_solver;
  MaxMinSolver cold_solver;
  for (int instance = 0; instance < 100; ++instance) {
    const int num_links = static_cast<int>(rng.uniform_int(6, 30));
    std::vector<Rate> capacity{rng.uniform(0.5, 2.0)};  // the early link
    for (int l = 1; l < num_links; ++l)
      capacity.push_back(rng.bernoulli(0.4) ? 100.0 : rng.uniform(50.0, 200.0));

    std::vector<FlowDemand> flows{flow({0})};  // fixes in round 0
    std::vector<std::int32_t> ids{0};
    std::int32_t next_id = 1;
    const auto random_flow = [&] {
      FlowDemand d;
      const int route_len = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < route_len; ++i) {
        const auto link =
            static_cast<std::int32_t>(rng.uniform_int(1, num_links - 1));
        if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
          d.links.push_back(link);
      }
      if (rng.bernoulli(0.5)) d.cap = rng.uniform(0.5, 30.0);  // binding-ish
      return d;
    };
    const int num_flows = static_cast<int>(rng.uniform_int(20, 60));
    for (int f = 0; f < num_flows; ++f) {
      flows.push_back(random_flow());
      ids.push_back(next_id++);
    }

    const auto make_views = [&](const std::vector<FlowDemand>& population) {
      std::vector<FlowDemandView> views;
      for (const auto& d : population)
        views.push_back(FlowDemandView{
            d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
      return views;
    };

    MaxMinWarmState state;
    std::map<std::int32_t, Rate> rate_of;
    {
      auto views = make_views(flows);
      std::vector<Rate> rates(flows.size());
      warm_solver.solve(capacity, views.data(), views.size(), rates.data(),
                        &state, ids.data());
      for (std::size_t f = 0; f < flows.size(); ++f)
        rate_of[ids[f]] = rates[f];
    }

    std::vector<std::pair<std::int32_t, Rate>> changed;
    std::int32_t bridge_id = -1;  // merge-then-depart in flight
    for (int event = 0; event < 6; ++event) {
      std::vector<std::int32_t> deps;
      std::vector<FlowDemand> arriving;
      std::vector<std::int32_t> arriving_ids;
      if (event == 0) {
        deps.push_back(0);  // the early-fixed flow: deepest cascade
      } else if (bridge_id >= 0 && event % 2 == 0) {
        deps.push_back(bridge_id);  // depart the bridge two events later
        bridge_id = -1;
      } else {
        // Arrival bridging two random links ("merge"), possibly capped.
        FlowDemand d;
        d.links.push_back(
            static_cast<std::int32_t>(rng.uniform_int(1, num_links - 1)));
        auto other =
            static_cast<std::int32_t>(rng.uniform_int(1, num_links - 1));
        if (other == d.links.front()) other = 1 + other % (num_links - 1);
        d.links.push_back(other);
        if (rng.bernoulli(0.5)) d.cap = rng.uniform(0.5, 30.0);
        arriving.push_back(std::move(d));
        arriving_ids.push_back(next_id);
        bridge_id = next_id++;
      }

      for (const std::int32_t dep : deps) {
        const auto it = std::find(ids.begin(), ids.end(), dep);
        ASSERT_NE(it, ids.end());
        const auto at = static_cast<std::size_t>(it - ids.begin());
        flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(at));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(at));
        rate_of.erase(dep);
      }
      std::vector<FlowArrival> arrivals;
      for (std::size_t a = 0; a < arriving.size(); ++a)
        arrivals.push_back(FlowArrival{
            arriving_ids[a], arriving[a].links.data(),
            static_cast<std::int32_t>(arriving[a].links.size()),
            arriving[a].cap});

      changed.clear();
      ASSERT_TRUE(warm_solver.solve_warm(
          capacity, state, arrivals.data(), arrivals.size(), deps.data(),
          deps.size(), changed))
          << "instance " << instance << " event " << event;
      for (std::size_t a = 0; a < arriving.size(); ++a) {
        flows.push_back(std::move(arriving[a]));
        ids.push_back(arriving_ids[a]);
      }
      for (const auto& [id, r] : changed) rate_of[id] = r;

      auto views = make_views(flows);
      std::vector<Rate> expected(flows.size());
      cold_solver.solve(capacity, views.data(), views.size(), expected.data());
      ASSERT_EQ(rate_of.size(), flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f)
        EXPECT_EQ(rate_of[ids[f]], expected[f])
            << "instance " << instance << " event " << event << " flow id "
            << ids[f];
    }
  }
}

// Batched deltas, shaped like a busy flat cluster's solves: eight or
// more departures in one call (eight of them fixed in the same round),
// ids far above every id seen so far (the departure stamps grow
// mid-run), a departed loopback flow next to link flows, an arrival
// joining the departures' link, and departures that make up the whole
// undone suffix, leaving nothing to re-solve.  Every delta is checked
// bitwise against a cold solve, and each is followed by another warm
// delta on the re-recorded trace.

TEST(MaxMinDifferential, WarmBatchedDeltasMatchColdBitwise) {
  Rng rng(0xBA7Cu);
  MaxMinSolver warm_solver;
  MaxMinSolver cold_solver;
  for (int instance = 0; instance < 60; ++instance) {
    const int num_links = static_cast<int>(rng.uniform_int(8, 40));
    // Link 0 is a small shared bottleneck: its flows all fix in round 0.
    std::vector<Rate> capacity{10.0};
    for (int l = 1; l < num_links; ++l)
      capacity.push_back(rng.bernoulli(0.4) ? 100.0 : rng.uniform(100.0, 500.0));
    const auto other_link = [&] {
      return static_cast<std::int32_t>(rng.uniform_int(1, num_links - 1));
    };
    const auto random_flow = [&] {
      FlowDemand d;
      d.links.push_back(other_link());
      const std::int32_t second = other_link();
      if (second != d.links.front()) d.links.push_back(second);
      if (rng.bernoulli(0.3)) d.cap = rng.uniform(1.0, 400.0);
      return d;
    };

    std::map<std::int32_t, FlowDemand> pop;
    std::int32_t next_id = 0;
    std::vector<std::int32_t> hot;  // the round-0 flows on link 0
    for (int f = 0; f < 10; ++f) {
      hot.push_back(next_id);
      pop[next_id++] = flow({0, other_link()});
    }
    const std::int32_t loopback = next_id;
    pop[next_id++] = FlowDemand{};
    const int num_flows = static_cast<int>(rng.uniform_int(20, 80));
    for (int f = 0; f < num_flows; ++f) pop[next_id++] = random_flow();

    std::map<std::int32_t, Rate> rate_of;
    const auto cold_rates = [&] {
      std::vector<FlowDemandView> views;
      for (const auto& [id, d] : pop)
        views.push_back(FlowDemandView{
            d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
      std::vector<Rate> rates(views.size());
      cold_solver.solve(capacity, views.data(), views.size(), rates.data());
      return rates;
    };
    MaxMinWarmState state;
    {
      std::vector<FlowDemandView> views;
      std::vector<std::int32_t> ids;
      for (const auto& [id, d] : pop) {
        views.push_back(FlowDemandView{
            d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
        ids.push_back(id);
      }
      std::vector<Rate> rates(views.size());
      warm_solver.solve(capacity, views.data(), views.size(), rates.data(),
                        &state, ids.data());
      for (std::size_t k = 0; k < ids.size(); ++k) rate_of[ids[k]] = rates[k];
    }

    std::vector<std::pair<std::int32_t, Rate>> changed;
    int step = 0;
    const auto apply = [&](const std::vector<std::int32_t>& deps,
                           std::vector<std::pair<std::int32_t, FlowDemand>>
                               arriving) {
      ++step;
      std::vector<FlowArrival> arrivals;
      for (const auto& [id, d] : arriving)
        arrivals.push_back(FlowArrival{
            id, d.links.data(), static_cast<std::int32_t>(d.links.size()),
            d.cap});
      changed.clear();
      ASSERT_TRUE(warm_solver.solve_warm(capacity, state, arrivals.data(),
                                         arrivals.size(), deps.data(),
                                         deps.size(), changed))
          << "instance " << instance << " step " << step;
      for (const std::int32_t id : deps) {
        pop.erase(id);
        rate_of.erase(id);
      }
      for (auto& [id, d] : arriving) pop[id] = std::move(d);
      for (const auto& [id, r] : changed) rate_of[id] = r;
      const std::vector<Rate> expected = cold_rates();
      ASSERT_EQ(rate_of.size(), pop.size());
      std::size_t k = 0;
      for (const auto& [id, d] : pop)
        EXPECT_EQ(rate_of[id], expected[k++])
            << "instance " << instance << " step " << step << " flow " << id;
    };
    const auto follow_up = [&] {
      apply({}, {{next_id, random_flow()}});
      ++next_id;
    };

    // Eight round-0 departures, the loopback flow and two later link
    // flows in one call: the earliest departure must decide.
    std::vector<std::int32_t> deps(hot.begin(), hot.begin() + 8);
    deps.push_back(loopback);
    for (const std::int32_t id : {hot.back() + 2, hot.back() + 5})
      deps.push_back(id);
    apply(deps, {});
    follow_up();
    // Arrivals with far-above ids, one joining link 0 as a flow on it
    // departs.
    const std::int32_t far = (1 << 20) + instance * 4;
    apply({hot[8]}, {{far, flow({0, other_link()})}, {far + 1, random_flow()}});
    follow_up();
    // Depart a far id (the stamps grow past 1 << 20) next to a hot flow.
    apply({far, hot[9]}, {{far + 2, random_flow()}});
    follow_up();
    // Depart every flow of the last round: the undone suffix is then
    // exactly the departures, and nothing is left to re-solve.
    const auto last_first =
        static_cast<std::size_t>(state.rounds.back().first_settle);
    std::vector<std::int32_t> last_round;
    for (std::size_t s = last_first; s < state.settles.size(); ++s)
      last_round.push_back(state.settles[s].id);
    apply(last_round, {});
    follow_up();
  }
}

// The seed solver's bottleneck test read remaining/active while the
// same pass mutated them, so which flows counted as bottlenecked could
// depend on flow index order.  The snapshot fix makes the result a
// function of the instance only: permuting flows must permute rates.
TEST(MaxMinDifferential, ReferenceIsFlowOrderIndependent) {
  Rng rng(0x0BDE);
  for (int instance = 0; instance < 50; ++instance) {
    const int num_links = static_cast<int>(rng.uniform_int(2, 10));
    const int num_flows = static_cast<int>(rng.uniform_int(2, 40));
    std::vector<Rate> capacity;
    for (int l = 0; l < num_links; ++l)
      capacity.push_back(rng.bernoulli(0.5) ? 100.0 : rng.uniform(5.0, 300.0));
    std::vector<FlowDemand> flows;
    for (int f = 0; f < num_flows; ++f) {
      FlowDemand d;
      const int route_len = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < route_len; ++i) {
        const auto link =
            static_cast<std::int32_t>(rng.uniform_int(0, num_links - 1));
        if (std::find(d.links.begin(), d.links.end(), link) == d.links.end())
          d.links.push_back(link);
      }
      if (rng.bernoulli(0.3)) d.cap = rng.uniform(1.0, 150.0);
      flows.push_back(std::move(d));
    }

    // Reverse permutation: rates must follow their flows.
    std::vector<FlowDemand> reversed(flows.rbegin(), flows.rend());
    const auto forward = maxmin_fair_rates_reference(capacity, flows);
    const auto backward = maxmin_fair_rates_reference(capacity, reversed);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const double a = forward[f];
      const double b = backward[flows.size() - 1 - f];
      const double scale = std::max({1.0, a, b});
      EXPECT_NEAR(a, b, 1e-9 * scale) << "instance " << instance;
    }
  }
}

}  // namespace
}  // namespace rats
