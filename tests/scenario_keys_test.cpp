// The scenario key lists (src/scenario/parser.cpp): the canonical text
// of every key, the keys a spec reads, and the value range of every
// integer key.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace rats::scenario {
namespace {

/// The head of a fig2 spec.
const std::string kFig2 = "[scenario]\nkind = \"fig2\"\n";

/// Expects `text` to fail at `line` with a message holding `fragment`.
void expect_error(const std::string& text, int line,
                  const std::string& fragment) {
  try {
    parse_scenario_string(text, "spec.rats");
    FAIL() << "expected a parse error mentioning '" << fragment << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.rats:" + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

/// Expects `text` to be canonical: it emits itself, and so does its
/// emission.
void expect_canonical(const std::string& text) {
  const std::string once = emit_scenario(parse_scenario_string(text));
  EXPECT_EQ(once, text);
  EXPECT_EQ(emit_scenario(parse_scenario_string(once)), once);
}

// ---- canonical text of every key -----------------------------------------

// Mixed cabinets, a generated irregular workload, one [algorithm] per
// scheduler kind, one [event] per event kind and every [output] key.
TEST(ScenarioKeys, MixedCabinetsAlgorithmsEventsAndOutput) {
  expect_canonical(
      "# every-key — RATS scenario (canonical form)\n"
      "[scenario]\n"
      "name = \"every-key\"\n"
      "kind = \"experiment\"\n"
      "\n[platform]\n"
      "name = \"mixed\"\n"
      "cabinets = [2, 3, 4]\n"
      "gflops = 2.5\n"
      "latency-us = 50\n"
      "bandwidth-gbps = 1.25\n"
      "uplink-latency-us = 80\n"
      "uplink-bandwidth-gbps = 0.5\n"
      "\n[workload]\n"
      "source = \"generate\"\n"
      "generator = \"irregular\"\n"
      "count = 2\n"
      "tasks = 12\n"
      "width = 0.5\n"
      "density = 0.25\n"
      "regularity = 0.75\n"
      "jump = 3\n"
      "generate-seed = 9\n"
      "\n[algorithm]\nname = \"c\"\nkind = \"cpa\"\n"
      "\n[algorithm]\nname = \"m\"\nkind = \"mcpa\"\n"
      "\n[algorithm]\nname = \"h\"\nkind = \"hcpa\"\n"
      "secondary-sort = false\n"
      "\n[algorithm]\nname = \"d\"\nkind = \"delta\"\n"
      "mindelta = -0.25\nmaxdelta = 0.75\n"
      "\n[algorithm]\nname = \"t\"\nkind = \"time-cost\"\n"
      "minrho = 0.40000000000000002\npacking = false\n"
      "\n[events]\n"
      "on-fail = \"hold\"\n"
      "\n[event]\nat = 1\nkind = \"link-capacity\"\nnode = 0\n"
      "factor = 0.5\n"
      "\n[event]\nat = 1.5\nkind = \"link-capacity\"\ncabinet = 1\n"
      "factor = 0.25\n"
      "\n[event]\nat = 2\nkind = \"node-slowdown\"\nnode = 3\n"
      "factor = 0.75\n"
      "\n[event]\nat = 3\nkind = \"node-fail\"\nnode = 4\n"
      "\n[event]\nat = 4\nkind = \"node-restart\"\nnode = 4\n"
      "\n[output]\n"
      "csv = true\n"
      "gantt = true\n"
      "report-csv = \"r.csv\"\n"
      "report-json = \"r.json\"\n"
      "trace = \"t.jsonl\"\n"
      "trace-gzip = true\n");
}

// Uniform cabinets, the family source and every [sweep] grid.
TEST(ScenarioKeys, UniformCabinetsFamilyAndEveryGrid) {
  expect_canonical(
      "# grids — RATS scenario (canonical form)\n"
      "[scenario]\n"
      "name = \"grids\"\n"
      "kind = \"sweep\"\n"
      "\n[platform]\n"
      "name = \"uniform\"\n"
      "cabinets = [4, 4]\n"
      "gflops = 1\n"
      "latency-us = 100\n"
      "bandwidth-gbps = 1\n"
      "uplink-latency-us = 100\n"
      "uplink-bandwidth-gbps = 1\n"
      "\n[workload]\n"
      "source = \"family\"\n"
      "family = \"strassen\"\n"
      "full = false\n"
      "samples-random = 1\n"
      "samples-kernel = 2\n"
      "seed = 7\n"
      "\n[algorithms]\n"
      "preset = \"naive\"\n"
      "\n[events]\n"
      "on-fail = \"reschedule\"\n"
      "\n[event]\nat = 0.5\nkind = \"node-slowdown\"\nnode = 1\n"
      "factor = 0.5\n"
      "\n[sweep]\n"
      "base = \"time-cost\"\n"
      "mindelta = [0, -0.5]\n"
      "maxdelta = [0.5, 1]\n"
      "minrho = [0.20000000000000001, 0.40000000000000002]\n"
      "packing = [true, false]\n"
      "event-factor = [0.25, 1]\n"
      "event-at = [0, 2.5]\n"
      "\n[output]\n"
      "csv = false\n");
}

// Several presets, the corpus source with a cap and the tuned preset.
TEST(ScenarioKeys, SeveralPresetsAndCorpus) {
  expect_canonical(
      "# presets — RATS scenario (canonical form)\n"
      "[scenario]\n"
      "name = \"presets\"\n"
      "kind = \"table5\"\n"
      "\n[platform]\n"
      "clusters = [\"chti\", \"grillon\", \"grelon\"]\n"
      "\n[workload]\n"
      "source = \"corpus\"\n"
      "full = true\n"
      "samples-random = 0\n"
      "samples-kernel = 3\n"
      "seed = 5\n"
      "cap-per-family = 4\n"
      "\n[algorithms]\n"
      "preset = \"tuned\"\n"
      "\n[output]\n"
      "csv = false\n");
}

// A flat cluster and each remaining generator, plus the file source.
TEST(ScenarioKeys, FlatClusterGeneratorsAndFile) {
  const std::string head =
      "# g — RATS scenario (canonical form)\n"
      "[scenario]\n"
      "name = \"g\"\n"
      "kind = \"single\"\n";
  const std::string flat =
      "\n[platform]\n"
      "name = \"flat\"\n"
      "nodes = 8\n"
      "gflops = 3.1850000000000001\n"
      "latency-us = 100\n"
      "bandwidth-gbps = 1\n";
  const std::string preset = "\n[platform]\ncluster = \"chti\"\n";
  const std::string tail =
      "\n[algorithms]\n"
      "preset = \"naive\"\n"
      "\n[output]\n"
      "csv = false\n";
  expect_canonical(head + flat +
                   "\n[workload]\n"
                   "source = \"generate\"\n"
                   "generator = \"fft\"\n"
                   "count = 1\n"
                   "fft-k = 4\n"
                   "generate-seed = 42\n" +
                   tail);
  expect_canonical(head + preset +
                   "\n[workload]\n"
                   "source = \"generate\"\n"
                   "generator = \"strassen\"\n"
                   "count = 3\n"
                   "generate-seed = 1000000000000000\n" +
                   tail);
  expect_canonical(head + preset +
                   "\n[workload]\n"
                   "source = \"generate\"\n"
                   "generator = \"layered\"\n"
                   "count = 1\n"
                   "tasks = 30\n"
                   "width = 1\n"
                   "density = 0.5\n"
                   "regularity = 0.25\n"
                   "generate-seed = 0\n" +
                   tail);
  expect_canonical(head + flat +
                   "\n[workload]\n"
                   "source = \"file\"\n"
                   "path = \"dag \\\"1\\\".txt\"\n" +
                   tail);
}

// Keys at their canonical defaults, and one-cluster lists, normalize
// away.
TEST(ScenarioKeys, DefaultsNormalizeAway) {
  const ScenarioSpec spec = parse_scenario_string(
      "[scenario]\nkind = \"single\"\nthreads = 3\n"
      "[platform]\nclusters = [\"grillon\"]\n"
      "[workload]\ncap-per-family = 0\n"
      "[algorithm]\nkind = \"hcpa\"\nsecondary-sort = true\n"
      "[events]\n"
      "[output]\ngantt = false\ntrace-gzip = false\n");
  EXPECT_EQ(spec.threads, 3u);
  EXPECT_EQ(emit_scenario(spec),
            "# single — RATS scenario (canonical form)\n"
            "[scenario]\n"
            "name = \"single\"\n"
            "kind = \"single\"\n"
            "\n[platform]\n"
            "cluster = \"grillon\"\n"
            "\n[workload]\n"
            "source = \"corpus\"\n"
            "full = false\n"
            "samples-random = 1\n"
            "samples-kernel = 5\n"
            "seed = 42\n"
            "\n[algorithm]\n"
            "name = \"hcpa\"\n"
            "kind = \"hcpa\"\n"
            "\n[output]\n"
            "csv = false\n");
}

// A spec without [platform] leaves `nodes` at 0, which canonical text
// leaves out so that it parses back.
TEST(ScenarioRoundTrip, UnsetPlatformParsesBack) {
  const std::string once =
      emit_scenario(parse_scenario_string("[scenario]\nkind = \"table1\"\n"));
  EXPECT_EQ(once.find("nodes"), std::string::npos) << once;
  EXPECT_EQ(emit_scenario(parse_scenario_string(once)), once);
}

// ---- what a spec reads ---------------------------------------------------

TEST(ScenarioKeys, UnreadKeysFailAtTheirLine) {
  expect_error(kFig2 + "[workload]\nsource = \"corpus\"\nfft-k = 4\n", 5,
               "[workload] key 'fft-k' is read only with source = "
               "\"generate\" and generator = \"fft\"");
  expect_error(kFig2 + "[workload]\nsource = \"generate\"\n"
                       "generator = \"strassen\"\ntasks = 12\n",
               6, "[workload] key 'tasks' is read only with source = "
                  "\"generate\" and a layered or irregular generator");
  expect_error(kFig2 + "[workload]\nsource = \"generate\"\n"
                       "generator = \"layered\"\njump = 2\n",
               6, "[workload] key 'jump' is read only with source = "
                  "\"generate\" and generator = \"irregular\"");
  expect_error(kFig2 + "[workload]\nseed = 3\nsource = \"file\"\n", 4,
               "[workload] key 'seed' is read only with source = "
               "\"corpus\" or \"family\"");
  expect_error(kFig2 + "[workload]\nfamily = \"fft\"\n", 4,
               "[workload] key 'family' is read only with source = "
               "\"family\"");
  expect_error(kFig2 + "[workload]\npath = \"dag.txt\"\n", 4,
               "[workload] key 'path' is read only with source = \"file\"");
  expect_error(kFig2 + "[algorithm]\nkind = \"delta\"\nminrho = 0.3\n", 5,
               "[algorithm] key 'minrho' is read only by a time-cost "
               "[algorithm]");
  expect_error(kFig2 + "[algorithm]\nkind = \"cpa\"\nmaxdelta = 1\n", 5,
               "[algorithm] key 'maxdelta' is read only by a delta "
               "[algorithm]");
  expect_error(kFig2 + "[platform]\nnodes = 8\nuplink-latency-us = 50\n", 5,
               "[platform] key 'uplink-latency-us' is read only with "
               "'cabinets'");
  // A kind that reads no [events] timeline: at the [event] section's
  // line, or at an on-fail policy's.
  expect_error("[scenario]\nkind = \"table2\"\n[event]\nat = 1\n"
               "kind = \"node-fail\"\nnode = 0\n",
               3, "kind \"table2\" does not read an [events] timeline (it "
                  "runs without platform events)");
  expect_error("[scenario]\nkind = \"table1\"\n[events]\n"
               "on-fail = \"hold\"\n",
               4, "kind \"table1\" does not read an [events] timeline");
}

// table4 tunes over the four family corpora of the paper's corpus,
// whatever the source says, so it reads no other source.
TEST(ScenarioKeys, Table4ReadsTheCorpusSourceOnly) {
  for (const char* source : {"family", "generate", "file"})
    expect_error("[scenario]\nkind = \"table4\"\n[workload]\nsource = \"" +
                     std::string(source) + "\"\n",
                 4, "kind \"table4\" does not read a [workload] source "
                    "other than \"corpus\" (it tunes over the paper's "
                    "corpus)");
  EXPECT_NO_THROW(parse_scenario_string(
      "[scenario]\nkind = \"table4\"\n[workload]\nsource = \"corpus\"\n"));
  // A built spec fails before anything runs.
  ScenarioSpec built =
      load_scenario(std::string(RATS_SOURCE_DIR) + "/scenarios/table4.rats");
  built.workload.source = WorkloadSpec::Source::Generate;
  EXPECT_THROW(build_report(built), Error);
}

TEST(ScenarioKeys, KeysThatStayAccepted) {
  for (const std::string& text :
       {kFig2 + "[platform]\nclusters = [\"grillon\"]\n",
        std::string("[scenario]\nkind = \"table1\"\n[events]\n"),
        kFig2 + "[events]\non-fail = \"hold\"\n",
        kFig2 + "[workload]\ncap-per-family = 0\n",
        kFig2 + "[algorithm]\nkind = \"hcpa\"\nsecondary-sort = true\n",
        kFig2 + "[output]\ngantt = false\n",
        kFig2 + "[output]\ntrace-gzip = true\n",
        kFig2 + "threads = 2\n"})
    EXPECT_NO_THROW(parse_scenario_string(text)) << text;
}

// ---- integer ranges ------------------------------------------------------
//
// An integer key's value must fit its member's type: none wraps.

const std::string kIntRange = "an integer in [-2147483648, 2147483647]";

TEST(ScenarioErrors, IntKeysMustFitInt) {
  const std::string generate = kFig2 + "[workload]\nsource = \"generate\"\n";
  expect_error(kFig2 + "[workload]\nsamples-kernel = 4294967297\n", 4,
               "'samples-kernel' must be " + kIntRange);
  expect_error(generate + "generator = \"layered\"\ntasks = 4294967306\n",
               6, "'tasks' must be " + kIntRange);
  expect_error(generate + "generator = \"fft\"\nfft-k = 4294967298\n", 6,
               "'fft-k' must be " + kIntRange);
  expect_error(generate + "count = 4294967298\n", 5,
               "'count' must be " + kIntRange);
  expect_error(kFig2 + "[platform]\nnodes = 4294967300\n", 4,
               "'nodes' must be " + kIntRange);
  expect_error(kFig2 + "[platform]\ncabinets = [4, 4294967300]\n", 4,
               "'cabinets' must contain only integers in [-2147483648, "
               "2147483647]");
}

TEST(ScenarioErrors, NodeIdKeysMustFitNodeId) {
  expect_error("[scenario]\nkind = \"experiment\"\n[event]\nat = 1\n"
               "kind = \"node-fail\"\nnode = 4294967297\n",
               6, "'node' must be " + kIntRange);
}

// Parsed only: a spec with such a thread count never runs.
TEST(ScenarioErrors, ThreadsMustFitUnsigned) {
  expect_error(kFig2 + "threads = 4294967296\n", 3,
               "'threads' must be an integer in [0, 4294967295]");
  expect_error(kFig2 + "threads = -1\n", 3,
               "'threads' must be an integer in [0, 4294967295]");
  EXPECT_EQ(parse_scenario_string(kFig2 + "threads = 4294967295\n").threads,
            4294967295u);
}

// Seeds are uint64_t, whose values must stay exact in a double.
TEST(ScenarioErrors, SeedsMustFitUint64) {
  expect_error(kFig2 + "[workload]\nseed = -1\n", 4,
               "'seed' must be an integer in [0, 1000000000000000]");
  expect_error(kFig2 + "[workload]\nsource = \"generate\"\n"
                       "generate-seed = 1e16\n",
               5, "'generate-seed' must be an integer in [0, "
                  "1000000000000000]");
  EXPECT_EQ(parse_scenario_string(kFig2 + "[workload]\nseed = 1e15\n")
                .workload.corpus.seed,
            1000000000000000ull);
}

}  // namespace
}  // namespace rats::scenario
