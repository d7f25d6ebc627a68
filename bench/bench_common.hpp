// Shared support for the ablation binaries.  The paper's figures and
// tables are scenario files instead: `rats run scenarios/<kind>.rats`.
//
// Every ablation accepts the same command line:
//   --full              use the paper's full 557-configuration corpus
//   --samples-random N  samples per random-DAG parameter combination
//   --samples-kernel N  samples per FFT size / Strassen
//   --seed S            corpus master seed
//   --csv               also emit machine-readable CSV after each table
//   --threads N         worker threads (0 = hardware concurrency)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "exp/experiment.hpp"
#include "exp/presets.hpp"
#include "platform/grid5000.hpp"
#include "sched/scheduler.hpp"

namespace rats::bench {

struct BenchConfig {
  presets::CorpusConfig corpus;
  bool csv = false;
  unsigned threads = 0;
};

/// Parses the common flags; prints usage and exits on --help (status 0)
/// or on an unknown option or malformed number (status 2).
BenchConfig parse_args(int argc, char** argv);

// The corpus presets (src/exp/presets.hpp) capture their announcement
// lines into strings; the ablations print them.
inline std::vector<CorpusEntry> make_corpus(const BenchConfig& cfg) {
  std::string announce;
  auto corpus = presets::make_corpus(cfg.corpus, &announce);
  std::fputs(announce.c_str(), stdout);
  return corpus;
}
inline std::vector<CorpusEntry> cap_per_family(std::vector<CorpusEntry> corpus,
                                               const BenchConfig& cfg, int n) {
  std::string announce;
  auto capped =
      presets::cap_per_family(std::move(corpus), cfg.corpus, n, &announce);
  std::fputs(announce.c_str(), stdout);
  return capped;
}

/// Prints a heading followed by an underline.
inline void heading(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

}  // namespace rats::bench
