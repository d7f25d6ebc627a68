#include "bench_common.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rats::bench {

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --full              paper corpus (3 random / 25 kernel samples)\n"
      "  --samples-random N  samples per random-DAG combination (default 1)\n"
      "  --samples-kernel N  samples per FFT size / Strassen (default 5)\n"
      "  --seed S            corpus master seed (default 42)\n"
      "  --csv               also emit CSV after each table\n"
      "  --threads N         worker threads (default: hardware)\n",
      prog);
  std::exit(code);
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0], 2);
  return argv[++i];
}

/// A count: decimal, >= 0 and within an int, as `rats` parses them.
int parse_count(int argc, char** argv, int& i) {
  const char* text = next_arg(argc, argv, i);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > INT_MAX)
    usage(argv[0], 2);
  return static_cast<int>(v);
}

/// A seed: decimal digits only (strtoull would wrap a sign) that fit
/// 64 bits, as `rats` parses them.
std::uint64_t parse_seed(int argc, char** argv, int& i) {
  const char* text = next_arg(argc, argv, i);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE)
    usage(argv[0], 2);
  return v;
}

}  // namespace

BenchConfig parse_args(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--full") == 0) {
      cfg.corpus.full = true;
    } else if (std::strcmp(a, "--samples-random") == 0) {
      cfg.corpus.samples_random = parse_count(argc, argv, i);
    } else if (std::strcmp(a, "--samples-kernel") == 0) {
      cfg.corpus.samples_kernel = parse_count(argc, argv, i);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.corpus.seed = parse_seed(argc, argv, i);
    } else if (std::strcmp(a, "--csv") == 0) {
      cfg.csv = true;
    } else if (std::strcmp(a, "--threads") == 0) {
      cfg.threads = static_cast<unsigned>(parse_count(argc, argv, i));
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a);
      usage(argv[0], 2);
    }
  }
  return cfg;
}

}  // namespace rats::bench
