// Unit tests for the declarative scenario engine (src/scenario):
// parse -> emit -> parse round-tripping, line-numbered validation
// errors, spec resolution (platforms incl. heterogeneous cabinets,
// workloads, algorithm presets) and the kind registry.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace rats::scenario {
namespace {

/// Expects parsing to fail and the message to carry both the expected
/// line number prefix and a fragment naming the problem.
void expect_parse_error(const std::string& text, int line,
                        const std::string& fragment) {
  try {
    parse_scenario_string(text, "spec.rats");
    FAIL() << "expected a parse error mentioning '" << fragment << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string prefix = "spec.rats:" + std::to_string(line) + ":";
    EXPECT_NE(what.find(prefix), std::string::npos)
        << "missing '" << prefix << "' in: " << what;
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << what;
  }
}

// ---- round-tripping ----------------------------------------------------

// Every kind's defaults live in one place, its checked-in scenario
// file, which must already be in canonical form.
TEST(ScenarioRoundTrip, EveryRegistryKindIsByteStable) {
  for (const std::string& kind : kinds()) {
    const std::string path =
        std::string(RATS_SOURCE_DIR) + "/scenarios/" + kind + ".rats";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing scenario file " << path;
    std::ostringstream text;
    text << in.rdbuf();
    const ScenarioSpec spec = parse_scenario_string(text.str(), path);
    EXPECT_EQ(spec.kind, kind) << path;
    EXPECT_EQ(emit_scenario(spec), text.str())
        << path << " is not in canonical form";
  }
}

TEST(ScenarioRoundTrip, CustomEverythingIsByteStable) {
  ScenarioSpec spec;
  spec.name = "custom";
  spec.kind = "sweep";
  spec.platform.presets.clear();
  spec.platform.name = "hetero";
  spec.platform.cabinet_nodes = {4, 8, 6};
  spec.platform.gflops = 3.185;
  spec.platform.uplink_bandwidth_gbps = 2.5;
  spec.workload.source = WorkloadSpec::Source::Generate;
  spec.workload.generator = "irregular";
  spec.workload.count = 2;
  spec.workload.dag.num_tasks = 30;
  spec.workload.dag.width = 0.25;  // not exactly representable in decimal? it is
  spec.workload.dag.jump = 4;
  spec.workload.generate_seed = 7;
  spec.sweep.minrhos = {0.2, 1.0 / 3.0, 0.5};
  spec.output.csv = true;
  spec.output.gantt = true;

  const auto round_trip = [](const ScenarioSpec& s) {
    const std::string once = emit_scenario(s);
    const ScenarioSpec reparsed = parse_scenario_string(once);
    EXPECT_EQ(once, emit_scenario(reparsed));
    return reparsed;
  };
  const ScenarioSpec reparsed = round_trip(spec);

  // And the reparsed spec carries the exact values (incl. the
  // non-decimal double through %.17g).
  EXPECT_EQ(reparsed.platform.cabinet_nodes, (std::vector<int>{4, 8, 6}));
  EXPECT_EQ(reparsed.workload.dag.jump, 4);
  ASSERT_EQ(reparsed.sweep.minrhos.size(), 3u);
  EXPECT_EQ(reparsed.sweep.minrhos[1], 1.0 / 3.0);
  EXPECT_TRUE(reparsed.output.gantt);

  // No kind reads both [sweep] grids and an [algorithm] list, so the
  // list round-trips through an experiment spec.
  ScenarioSpec listed = spec;
  listed.kind = "experiment";
  listed.sweep = SweepSpec{};
  listed.algorithms.preset.clear();
  AlgoSpec delta;
  delta.name = "my-delta";
  delta.options.kind = SchedulerKind::RatsDelta;
  delta.options.rats.mindelta = -0.3;
  delta.options.rats.maxdelta = 0.9;
  delta.options.secondary_sort = false;
  listed.algorithms.algos = {delta};
  const ScenarioSpec relisted = round_trip(listed);
  EXPECT_EQ(relisted.algorithms.algos.size(), 1u);
  EXPECT_EQ(relisted.algorithms.algos[0].name, "my-delta");
  EXPECT_DOUBLE_EQ(relisted.algorithms.algos[0].options.rats.mindelta, -0.3);
  EXPECT_FALSE(relisted.algorithms.algos[0].options.secondary_sort);
}

TEST(ScenarioRoundTrip, CommentsAndSpacingNormalizeAway) {
  const std::string messy =
      "# leading comment\n"
      "[scenario]\n"
      "  kind   =   \"fig2\"   # trailing comment\n"
      "\n"
      "[platform]\n"
      "cluster = \"grillon\"\n";
  const ScenarioSpec spec = parse_scenario_string(messy);
  EXPECT_EQ(spec.kind, "fig2");
  EXPECT_EQ(spec.name, "fig2");  // defaults to the kind
  const std::string once = emit_scenario(spec);
  EXPECT_EQ(once, emit_scenario(parse_scenario_string(once)));
}

// ---- validation errors -------------------------------------------------

TEST(ScenarioErrors, UnknownKeyNamesSectionAndLine) {
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[workload]\nsample-kernel = 5\n", 4,
      "unknown key 'sample-kernel' in [workload]");
}

TEST(ScenarioErrors, UnknownSection) {
  expect_parse_error("[scenario]\nkind = \"fig2\"\n[platforms]\n", 3,
                     "unknown section [platforms]");
}

TEST(ScenarioErrors, WrongTypeIsRejected) {
  expect_parse_error("[scenario]\nkind = 2\n", 2, "'kind' must be a \"string\"");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[workload]\nseed = \"42\"\n", 4,
      "'seed' must be a number");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[workload]\nseed = 1.5\n", 4,
      "'seed' must be an integer");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[output]\ncsv = 1\n", 4,
      "'csv' must be true or false");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[sweep]\nminrho = [0.2, \"x\"]\n", 4,
      "'minrho' must contain only numbers");
}

TEST(ScenarioErrors, MissingScenarioSection) {
  expect_parse_error("[platform]\ncluster = \"grillon\"\n", 1,
                     "missing [scenario] section");
}

TEST(ScenarioErrors, MissingKind) {
  expect_parse_error("[scenario]\nname = \"x\"\n", 1, "missing 'kind'");
}

TEST(ScenarioErrors, DuplicateKeyPointsAtFirstUse) {
  expect_parse_error("[scenario]\nkind = \"fig2\"\nkind = \"fig3\"\n", 3,
                     "duplicate key 'kind'");
}

TEST(ScenarioErrors, DuplicateSection) {
  expect_parse_error("[scenario]\nkind = \"fig2\"\n[output]\n[output]\n", 4,
                     "duplicate section [output]");
}

TEST(ScenarioErrors, MalformedSyntax) {
  expect_parse_error("[scenario\n", 1, "does not end with ']'");
  expect_parse_error("kind = \"fig2\"\n", 1, "before any [section]");
  expect_parse_error("[scenario]\nkind\n", 2, "expected 'key = value'");
  expect_parse_error("[scenario]\nkind = \"fig2\n", 2, "unterminated string");
  expect_parse_error("[scenario]\nkind = fig2\n", 2, "cannot parse value");
}

TEST(ScenarioErrors, PresetAndExplicitAlgorithmsConflict) {
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[algorithms]\npreset = \"naive\"\n"
      "[algorithm]\nkind = \"hcpa\"\n",
      3, "conflicts with explicit [algorithm]");
}

TEST(ScenarioErrors, NonPositivePlatformNumbers) {
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\nnodes = 4\n"
      "bandwidth-gbps = 0\n",
      5, "'bandwidth-gbps' must be positive");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\nnodes = 4\n"
      "latency-us = -100\n",
      5, "'latency-us' must be >= 0");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\ncabinets = [2, 2]\n"
      "uplink-bandwidth-gbps = -1\n",
      5, "'uplink-bandwidth-gbps' must be positive");
}

TEST(ScenarioErrors, SweepKindValidation) {
  // No [sweep] section at all.
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[platform]\ncluster = \"grillon\"\n", 1,
      "needs a [sweep] section");
  // A [sweep] section with nothing to sweep.
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\nbase = \"delta\"\n", 3,
      "at least one non-empty grid");
  // An unknown base algorithm.
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\nmindelta = [0]\n"
      "base = \"hcpa\"\n",
      5, "unknown sweep base 'hcpa' (expected delta or time-cost)");
  // A packing grid that is not boolean.
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\npacking = [1, 0]\n", 4,
      "'packing' must contain only true/false");
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\npacking = true\n", 4,
      "'packing' must be an array of booleans");
  // A key the kind does not read: fig4 reads mindelta and maxdelta,
  // fig5 minrho, every other kind but sweep none.
  expect_parse_error(
      "[scenario]\nkind = \"fig4\"\n[event]\nat = 1\n"
      "kind = \"node-slowdown\"\nnode = 0\nfactor = 0.5\n"
      "[sweep]\nmindelta = [0]\nevent-factor = [0.25, 0.5]\n",
      10, "kind \"fig4\" does not read [sweep] key 'event-factor' (it reads "
          "mindelta, maxdelta)");
  expect_parse_error(
      "[scenario]\nkind = \"fig4\"\n[sweep]\nminrho = [0.2]\n", 4,
      "does not read [sweep] key 'minrho'");
  expect_parse_error(
      "[scenario]\nkind = \"fig4\"\n[sweep]\npacking = [false]\n", 4,
      "does not read [sweep] key 'packing'");
  expect_parse_error(
      "[sweep]\nbase = \"time-cost\"\n[scenario]\nkind = \"fig4\"\n", 2,
      "does not read [sweep] key 'base'");
  expect_parse_error(
      "[scenario]\nkind = \"fig5\"\n[sweep]\nminrho = [0.2]\n"
      "maxdelta = [1]\n",
      5, "kind \"fig5\" does not read [sweep] key 'maxdelta' (it reads "
         "minrho)");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[sweep]\nminrho = [0.3]\n", 4,
      "kind \"fig2\" does not read [sweep] key 'minrho' (it reads none)");
  // A built spec has no line: the registry rejects it before any run.
  ScenarioSpec built =
      load_scenario(std::string(RATS_SOURCE_DIR) + "/scenarios/fig4.rats");
  built.workload.cap_per_family = 1;
  built.threads = 1;
  built.sweep.minrhos = {0.2};
  EXPECT_THROW(build_report(built), Error);
}

TEST(ScenarioErrors, AlgorithmsTheKindDoesNotRead) {
  // fig4, fig5, sweep and table1-4 run their own points: no [algorithm]
  // list and no tuned preset.  The error sits at the section's line.
  const std::string algo = "[algorithm]\nkind = \"hcpa\"\n";
  expect_parse_error("[scenario]\nkind = \"fig4\"\n" + algo, 3,
                     "kind \"fig4\" does not read [algorithm] sections (it "
                     "runs its own points)");
  expect_parse_error(algo + algo + "[scenario]\nkind = \"fig5\"\n", 1,
                     "kind \"fig5\" does not read [algorithm] sections");
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\nminrho = [0.2]\n" + algo, 5,
      "kind \"sweep\" does not read [algorithm] sections");
  expect_parse_error("[scenario]\nkind = \"table1\"\n" + algo, 3,
                     "kind \"table1\" does not read [algorithm] sections");
  expect_parse_error(
      "[scenario]\nkind = \"fig5\"\n[algorithms]\npreset = \"tuned\"\n", 3,
      "kind \"fig5\" does not read preset \"tuned\" (it runs its own "
      "points)");
  expect_parse_error(
      "[scenario]\nkind = \"table4\"\n[algorithms]\npreset = \"tuned\"\n", 3,
      "kind \"table4\" does not read preset \"tuned\"");
  // table5, table6 and robustness always run the tuned preset.
  for (const char* kind : {"table5", "table6", "robustness"})
    expect_parse_error(
        "[scenario]\nkind = \"" + std::string(kind) + "\"\n" + algo, 3,
        "kind \"" + std::string(kind) +
            "\" does not read [algorithm] sections (it always runs the "
            "tuned preset)");
  for (const char* kind : {"table5", "table6", "robustness"})
    EXPECT_NO_THROW(parse_scenario_string(
        "[scenario]\nkind = \"" + std::string(kind) +
        "\"\n[algorithms]\npreset = \"tuned\"\n"))
        << kind;
  // The default preset stays accepted everywhere (canonical emission
  // writes it for every spec), and list kinds read both forms.
  for (const std::string& kind : kinds()) {
    const std::string sweep =
        kind == "sweep" ? "[sweep]\nmindelta = [0]\n" : "";
    EXPECT_NO_THROW(parse_scenario_string(
        "[scenario]\nkind = \"" + kind + "\"\n" + sweep +
        "[algorithms]\npreset = \"naive\"\n"))
        << kind;
  }
  EXPECT_NO_THROW(parse_scenario_string("[scenario]\nkind = \"fig2\"\n" + algo));
  EXPECT_NO_THROW(parse_scenario_string(
      "[scenario]\nkind = \"single\"\n[algorithms]\npreset = \"tuned\"\n"));
}

TEST(ScenarioRoundTrip, SweepAndOutputSectionsAreByteStable) {
  const std::string text =
      "[scenario]\nkind = \"sweep\"\nname = \"s\"\n"
      "[platform]\ncluster = \"grillon\"\n"
      "[workload]\nsource = \"family\"\nfamily = \"fft\"\n"
      "[sweep]\nbase = \"time-cost\"\nminrho = [0.2, 0.4]\n"
      "packing = [true, false]\n"
      "[output]\nreport-csv = \"out.csv\"\nreport-json = \"out.json\"\n"
      "trace = \"out.jsonl\"\n";
  const ScenarioSpec spec = parse_scenario_string(text);
  EXPECT_EQ(spec.sweep.base, "time-cost");
  EXPECT_EQ(spec.sweep.packings, (std::vector<bool>{true, false}));
  EXPECT_EQ(spec.output.report_csv, "out.csv");
  EXPECT_EQ(spec.output.report_json, "out.json");
  EXPECT_EQ(spec.output.trace, "out.jsonl");
  const std::string once = emit_scenario(spec);
  EXPECT_NE(once.find("base = \"time-cost\""), std::string::npos);
  EXPECT_NE(once.find("packing = [true, false]"), std::string::npos);
  EXPECT_NE(once.find("trace = \"out.jsonl\""), std::string::npos);
  EXPECT_EQ(once, emit_scenario(parse_scenario_string(once)));
}

TEST(ScenarioErrors, MixedPlatformForms) {
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\ncluster = \"grillon\"\n"
      "nodes = 8\n",
      5, "mixes named clusters with custom-cluster keys");
}

TEST(ScenarioErrors, UnknownKindListsRegistry) {
  ScenarioSpec spec = parse_scenario_string(
      "[scenario]\nkind = \"fig9\"\n[platform]\ncluster = \"grillon\"\n");
  try {
    run(spec);
    FAIL() << "expected unknown-kind error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown scenario kind 'fig9'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fig2"), std::string::npos);
  }
}

// ---- resolution --------------------------------------------------------

TEST(ScenarioResolve, HeterogeneousCabinets) {
  PlatformSpec p;
  p.name = "hetero";
  p.cabinet_nodes = {4, 8, 6};
  p.gflops = 3.0;
  const Cluster c = p.resolve_one();
  EXPECT_EQ(c.num_nodes(), 18);
  EXPECT_TRUE(c.hierarchical_topology());
  EXPECT_EQ(c.cabinets(), 3);
  EXPECT_EQ(c.cabinet_of(0), 0);
  EXPECT_EQ(c.cabinet_of(3), 0);
  EXPECT_EQ(c.cabinet_of(4), 1);
  EXPECT_EQ(c.cabinet_of(11), 1);
  EXPECT_EQ(c.cabinet_of(12), 2);
  EXPECT_EQ(c.cabinet_of(17), 2);
  // Cross-cabinet routes take 4 links (nic up, cabinet up/down, nic
  // down); same-cabinet routes take 2.
  EXPECT_EQ(c.route(0, 5).size(), 4u);
  EXPECT_EQ(c.route(4, 11).size(), 2u);
  // One uplink pair per cabinet on top of the per-node NIC pairs.
  EXPECT_EQ(c.num_links(), 2 * 18 + 2 * 3);
}

TEST(ScenarioResolve, UniformCabinetListMatchesHierarchical) {
  PlatformSpec p;
  p.name = "uniform";
  p.cabinet_nodes = {8, 8};
  const Cluster c = p.resolve_one();
  EXPECT_EQ(c.num_nodes(), 16);
  EXPECT_EQ(c.cabinets(), 2);
  EXPECT_EQ(c.cabinet_of(7), 0);
  EXPECT_EQ(c.cabinet_of(8), 1);
}

TEST(ScenarioResolve, UnknownPresetThrows) {
  PlatformSpec p;
  p.presets = {"grilon"};
  EXPECT_THROW(p.resolve(), Error);
}

TEST(ScenarioResolve, MultiClusterNeedsMultiKind) {
  PlatformSpec p;
  p.presets = {"chti", "grillon"};
  EXPECT_EQ(p.resolve().size(), 2u);
  EXPECT_THROW(p.resolve_one(), Error);
}

TEST(ScenarioResolve, GeneratedWorkloadIsDeterministic) {
  WorkloadSpec w;
  w.source = WorkloadSpec::Source::Generate;
  w.generator = "fft";
  w.fft_k = 4;
  w.count = 2;
  const auto a = w.resolve();
  const auto b = w.resolve();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].name, "fft/s0");
  EXPECT_EQ(a[0].graph.num_tasks(), 15);  // 2k-1 + k log2 k for k=4
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[1].graph.num_edges(), b[1].graph.num_edges());
}

TEST(ScenarioResolve, QuietAndAnnouncedCapPickTheSameEntries) {
  WorkloadSpec w;
  w.corpus.samples_random = 0;
  w.corpus.samples_kernel = 2;
  w.cap_per_family = 1;
  std::string notes;
  const auto loud = w.resolve(&notes);
  const auto quiet = w.resolve();
  EXPECT_NE(notes.find("corpus:"), std::string::npos);
  EXPECT_NE(notes.find("capped"), std::string::npos);
  ASSERT_EQ(loud.size(), quiet.size());
  for (std::size_t i = 0; i < loud.size(); ++i)
    EXPECT_EQ(loud[i].name, quiet[i].name);
}

TEST(ScenarioResolve, AlgorithmPresets) {
  AlgorithmsSpec naive;
  EXPECT_EQ(naive.names(),
            (std::vector<std::string>{"HCPA", "delta", "time-cost"}));
  AlgorithmsSpec tuned;
  tuned.preset = "tuned";
  const auto fft = tuned.resolve(DagFamily::FFT, "grillon");
  const auto strassen = tuned.resolve(DagFamily::Strassen, "grillon");
  ASSERT_EQ(fft.size(), 3u);
  // Table IV: different families tune differently on the same cluster.
  EXPECT_NE(fft[1].options.rats.minrho, strassen[1].options.rats.minrho);
}

TEST(ScenarioRegistry, KindsAndTraceability) {
  const auto all = kinds();
  EXPECT_EQ(all.size(), 19u);
  EXPECT_TRUE(kind_supports_trace("fig2"));
  EXPECT_TRUE(kind_supports_trace("robustness"));
  EXPECT_TRUE(kind_supports_trace("experiment"));
  EXPECT_TRUE(kind_supports_trace("single"));
  EXPECT_TRUE(kind_supports_trace("sweep"));
  // Every kind that executes one run matrix traces through the same
  // session hook — sweeps and the tuned multi-cluster tables included.
  EXPECT_TRUE(kind_supports_trace("fig4"));
  EXPECT_TRUE(kind_supports_trace("table5"));
  EXPECT_TRUE(kind_supports_trace("ablation_allocation"));
  EXPECT_TRUE(kind_supports_trace("ablation_sort"));
  // Static reports and table4's repeated tuning matrices do not trace.
  EXPECT_FALSE(kind_supports_trace("table1"));
  EXPECT_FALSE(kind_supports_trace("table4"));
  // The contention ablation simulates each schedule twice itself.
  EXPECT_FALSE(kind_supports_trace("ablation_contention"));
  EXPECT_FALSE(kind_supports_trace("nope"));
}

// ---- [event] node-set selectors ----------------------------------------

/// Minimal experiment preamble shared by the selector tests.
const char* kEventPreamble =
    "[scenario]\n"
    "kind = \"experiment\"\n"
    "[workload]\n"
    "source = \"generate\"\n"
    "generator = \"layered\"\n"
    "count = 1\n"
    "tasks = 10\n";

TEST(ScenarioEvents, NodesListExpandsPerNodeInOrder) {
  const std::string text = std::string(kEventPreamble) +
                           "[platform]\n"
                           "nodes = 6\n"
                           "[event]\n"
                           "at = 1\n"
                           "kind = \"node-slowdown\"\n"
                           "nodes = [1, 3, 5]\n"
                           "factor = 0.5\n";
  const ScenarioSpec spec = parse_scenario_string(text);
  const auto& ev = spec.events.timeline.events;
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].node, 1);
  EXPECT_EQ(ev[1].node, 3);
  EXPECT_EQ(ev[2].node, 5);
  for (const PlatformEvent& e : ev) {
    EXPECT_EQ(e.kind, PlatformEventKind::NodeSlowdown);
    EXPECT_EQ(e.at, 1.0);
    EXPECT_EQ(e.factor, 0.5);
    EXPECT_EQ(e.cabinet, -1);
  }
  // The sugar is resolved at parse time, so the emitted form (one
  // [event] per node) must round-trip byte-stable.
  const std::string emitted = emit_scenario(spec);
  EXPECT_EQ(emit_scenario(parse_scenario_string(emitted)), emitted);
}

TEST(ScenarioEvents, CabinetGroupExpandsToItsNodes) {
  const std::string text = std::string(kEventPreamble) +
                           "[platform]\n"
                           "name = \"twocab\"\n"
                           "cabinets = [2, 3]\n"
                           "[event]\n"
                           "at = 2\n"
                           "kind = \"node-fail\"\n"
                           "cabinet = 1\n"
                           "[event]\n"
                           "at = 4\n"
                           "kind = \"node-restart\"\n"
                           "cabinet = 1\n";
  const ScenarioSpec spec = parse_scenario_string(text);
  const auto& ev = spec.events.timeline.events;
  // Cabinet 1 of [2, 3] holds nodes 2, 3, 4; fail then restart.
  ASSERT_EQ(ev.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ev[i].kind, PlatformEventKind::NodeFail);
    EXPECT_EQ(ev[i].node, 2 + i);
    EXPECT_EQ(ev[i].cabinet, -1);
    EXPECT_EQ(ev[3 + i].kind, PlatformEventKind::NodeRestart);
    EXPECT_EQ(ev[3 + i].node, 2 + i);
  }
  const std::string emitted = emit_scenario(spec);
  EXPECT_EQ(emit_scenario(parse_scenario_string(emitted)), emitted);
}

TEST(ScenarioEvents, LinkCapacityCabinetKeepsItsUplinkMeaning) {
  // On a link-capacity event `cabinet` selects the cabinet's uplink
  // pair, not its nodes: no expansion happens.
  const std::string text = std::string(kEventPreamble) +
                           "[platform]\n"
                           "name = \"twocab\"\n"
                           "cabinets = [2, 3]\n"
                           "[event]\n"
                           "at = 1\n"
                           "kind = \"link-capacity\"\n"
                           "cabinet = 1\n"
                           "factor = 0.25\n";
  const ScenarioSpec spec = parse_scenario_string(text);
  ASSERT_EQ(spec.events.timeline.events.size(), 1u);
  EXPECT_EQ(spec.events.timeline.events[0].cabinet, 1);
  EXPECT_EQ(spec.events.timeline.events[0].node, -1);
}

TEST(ScenarioEvents, SelectorsAreMutuallyExclusive) {
  expect_parse_error(std::string(kEventPreamble) +
                         "[platform]\n"
                         "nodes = 4\n"
                         "[event]\n"
                         "at = 1\n"
                         "kind = \"node-fail\"\n"
                         "node = 1\n"
                         "nodes = [2, 3]\n",
                     12, "needs exactly one of 'node', 'nodes' or 'cabinet'");
  expect_parse_error(std::string(kEventPreamble) +
                         "[platform]\n"
                         "nodes = 4\n"
                         "[event]\n"
                         "at = 1\n"
                         "kind = \"node-fail\"\n",
                     12, "needs exactly one of 'node', 'nodes' or 'cabinet'");
  expect_parse_error(std::string(kEventPreamble) +
                         "[platform]\n"
                         "nodes = 4\n"
                         "[event]\n"
                         "at = 1\n"
                         "kind = \"node-slowdown\"\n"
                         "nodes = []\n"
                         "factor = 0.5\n",
                     13, "'nodes' must not be empty");
}

TEST(ScenarioEvents, CabinetGroupNeedsAHierarchicalPlatform) {
  expect_parse_error(std::string(kEventPreamble) +
                         "[platform]\n"
                         "nodes = 4\n"
                         "[event]\n"
                         "at = 1\n"
                         "kind = \"node-fail\"\n"
                         "cabinet = 0\n",
                     10, "has a flat topology");
  expect_parse_error(std::string(kEventPreamble) +
                         "[platform]\n"
                         "name = \"twocab\"\n"
                         "cabinets = [2, 3]\n"
                         "[event]\n"
                         "at = 1\n"
                         "kind = \"node-fail\"\n"
                         "cabinet = 2\n",
                     11, "has 2 cabinets");
}

// ---- parser hardening ---------------------------------------------------

TEST(ScenarioErrors, NonFiniteNumbersAreRejected) {
  expect_parse_error("[scenario]\nkind = \"fig2\"\n[platform]\ngflops = nan\n",
                     4, "not finite");
  expect_parse_error("[scenario]\nkind = \"fig2\"\n[platform]\ngflops = inf\n",
                     4, "not finite");
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\ngflops = 1e999\n", 4,
      "not finite");
}

TEST(ScenarioErrors, EmptyCabinetListIsRejected) {
  expect_parse_error(
      "[scenario]\nkind = \"fig2\"\n[platform]\ncabinets = []\n", 4,
      "'cabinets' must not be empty");
}

TEST(ScenarioErrors, EmptySweepGridIsRejected) {
  expect_parse_error(
      "[scenario]\nkind = \"sweep\"\n[sweep]\nmindelta = []\n", 4,
      "grid must not be empty");
}

TEST(ScenarioErrors, FftKMustBeAPowerOfTwo) {
  expect_parse_error("[scenario]\nkind = \"fig2\"\n[workload]\n"
                     "source = \"generate\"\ngenerator = \"fft\"\n"
                     "fft-k = 3\n",
                     6, "power of two in [2, 16]");
}

}  // namespace
}  // namespace rats::scenario
