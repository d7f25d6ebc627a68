#include "scenario/spec.hpp"

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "daggen/kernels.hpp"
#include "io/workflow_io.hpp"
#include "platform/grid5000.hpp"

namespace rats::scenario {

std::vector<Cluster> PlatformSpec::resolve() const {
  std::vector<Cluster> clusters;
  for (const std::string& preset : presets) {
    if (preset == "chti") clusters.push_back(grid5000::chti());
    else if (preset == "grillon") clusters.push_back(grid5000::grillon());
    else if (preset == "grelon") clusters.push_back(grid5000::grelon());
    else
      throw Error("unknown platform preset '" + preset +
                  "' (expected chti, grillon or grelon)");
  }
  if (!clusters.empty()) return clusters;

  const Seconds latency = latency_us * 1e-6;
  const Rate bandwidth = bandwidth_gbps * 1e9 / 8.0;
  if (!cabinet_nodes.empty()) {
    // Uniform cabinet sizes use the homogeneous constructor (its
    // cabinet arithmetic is the cheaper one); mixed sizes take the
    // heterogeneous prefix-sum path.
    bool uniform = true;
    for (const int n : cabinet_nodes) uniform = uniform && n == cabinet_nodes[0];
    const Seconds up_latency = uplink_latency_us * 1e-6;
    const Rate up_bandwidth = uplink_bandwidth_gbps * 1e9 / 8.0;
    clusters.push_back(
        uniform ? Cluster::hierarchical(
                      name, static_cast<int>(cabinet_nodes.size()),
                      cabinet_nodes[0], gflops * Giga, latency, bandwidth,
                      up_latency, up_bandwidth)
                : Cluster::hierarchical_custom(name, cabinet_nodes,
                                               gflops * Giga, latency,
                                               bandwidth, up_latency,
                                               up_bandwidth));
    return clusters;
  }
  if (nodes <= 0)
    throw Error("platform section needs clusters, nodes or cabinets");
  clusters.push_back(
      Cluster::flat(name, nodes, gflops * Giga, latency, bandwidth));
  return clusters;
}

Cluster PlatformSpec::resolve_one() const {
  auto clusters = resolve();
  RATS_REQUIRE(clusters.size() == 1,
               "this scenario kind runs on exactly one cluster");
  return clusters.front();
}

namespace {

DagFamily family_from_name(const std::string& name) {
  if (name == "layered") return DagFamily::Layered;
  if (name == "irregular") return DagFamily::Irregular;
  if (name == "fft") return DagFamily::FFT;
  if (name == "strassen") return DagFamily::Strassen;
  throw Error("unknown DAG family '" + name +
              "' (expected layered, irregular, fft or strassen)");
}

}  // namespace

std::vector<CorpusEntry> WorkloadSpec::resolve(std::string* announce) const {
  std::vector<CorpusEntry> entries;
  switch (source) {
    case Source::Corpus:
      entries = presets::make_corpus(corpus, announce);
      break;
    case Source::Family:
      entries =
          presets::make_family(family_from_name(family), corpus, announce);
      break;
    case Source::Generate: {
      const DagFamily fam = family_from_name(generator);
      RATS_REQUIRE(count > 0, "generated workload needs count >= 1");
      for (int sample = 0; sample < count; ++sample) {
        Rng rng(generate_seed + static_cast<std::uint64_t>(sample));
        CorpusEntry entry;
        entry.family = fam;
        entry.sample = sample;
        entry.params = dag;
        entry.fft_k = fam == DagFamily::FFT ? fft_k : 0;
        entry.name = generator + "/s" + std::to_string(sample);
        switch (fam) {
          case DagFamily::FFT:
            entry.graph = generate_fft_dag(fft_k, rng);
            break;
          case DagFamily::Strassen:
            entry.graph = generate_strassen_dag(rng);
            break;
          case DagFamily::Layered:
            entry.graph = generate_layered_dag(dag, rng);
            break;
          case DagFamily::Irregular:
            entry.graph = generate_irregular_dag(dag, rng);
            break;
        }
        entries.push_back(std::move(entry));
      }
      if (announce)
        *announce += strf("workload: %d generated %s DAG%s (seed %llu)\n",
                          count, generator.c_str(), count == 1 ? "" : "s",
                          static_cast<unsigned long long>(generate_seed));
      break;
    }
    case Source::File: {
      RATS_REQUIRE(!path.empty(), "file workload needs a path");
      CorpusEntry entry;
      entry.family = DagFamily::Irregular;  // tuned preset fallback family
      entry.name = path;
      entry.graph = load_workflow(path);
      entries.push_back(std::move(entry));
      if (announce)
        *announce += strf("workload: %s (%d tasks, %d edges)\n", path.c_str(),
                          entries.front().graph.num_tasks(),
                          entries.front().graph.num_edges());
      break;
    }
  }
  if (cap_per_family > 0 &&
      (source == Source::Corpus || source == Source::Family))
    entries = presets::cap_per_family(std::move(entries), corpus,
                                      cap_per_family, announce);
  RATS_REQUIRE(!entries.empty(), "workload resolved to zero task graphs");
  return entries;
}

std::vector<AlgoSpec> AlgorithmsSpec::resolve(
    DagFamily family, const std::string& cluster) const {
  if (preset == "naive") return presets::naive_algos();
  if (preset == "tuned") return presets::tuned_algos(family, cluster);
  RATS_REQUIRE(!algos.empty(), "algorithms section resolved to an empty list");
  return algos;
}

std::vector<std::string> AlgorithmsSpec::names() const {
  std::vector<std::string> names;
  if (preset == "naive" || preset == "tuned") {
    for (const AlgoSpec& a : presets::naive_algos()) names.push_back(a.name);
    return names;
  }
  for (const AlgoSpec& a : algos) names.push_back(a.name);
  return names;
}

std::vector<std::string> SweepSpec::keys() const {
  std::vector<std::string> keys;
  if (base != "delta") keys.emplace_back("base");
  if (!mindeltas.empty()) keys.emplace_back("mindelta");
  if (!maxdeltas.empty()) keys.emplace_back("maxdelta");
  if (!minrhos.empty()) keys.emplace_back("minrho");
  if (!packings.empty()) keys.emplace_back("packing");
  if (!event_factors.empty()) keys.emplace_back("event-factor");
  if (!event_ats.empty()) keys.emplace_back("event-at");
  return keys;
}

PlatformTimeline EventsSpec::resolve(const Cluster& cluster,
                                     const std::string& context) const {
  PlatformTimeline resolved = timeline;
  resolved.validate(cluster, context);
  resolved.sort();
  return resolved;
}

}  // namespace rats::scenario
