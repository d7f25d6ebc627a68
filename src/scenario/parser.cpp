#include "scenario/parser.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "scenario/registry.hpp"

namespace rats::scenario {

namespace {

// ---- lexing ------------------------------------------------------------

struct Value {
  enum class Type { String, Number, Bool, Array };
  Type type = Type::Number;
  std::string str;
  double num = 0;
  bool boolean = false;
  std::vector<Value> items;  ///< Array only (flat: scalars)
};

struct KeyVal {
  std::string key;
  Value value;
  int line = 0;
};

struct Section {
  std::string name;
  int line = 0;
  std::vector<KeyVal> entries;
};

[[noreturn]] void fail(const std::string& file, int line,
                       const std::string& msg) {
  throw Error(file + ":" + std::to_string(line) + ": " + msg);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Strips a trailing comment ('#' outside quotes).
std::string strip_comment(const std::string& s) {
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped char
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '#') {
      return s.substr(0, i);
    }
  }
  return s;
}

std::string parse_quoted(const std::string& file, int line,
                         const std::string& text) {
  std::string out;
  bool closed = false;
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) fail(file, line, "dangling escape in string");
      const char next = text[++i];
      if (next == '"' || next == '\\') out += next;
      else if (next == 'n') out += '\n';
      else if (next == 't') out += '\t';
      else fail(file, line, std::string("unknown escape '\\") + next + "'");
    } else if (c == '"') {
      if (i + 1 != text.size())
        fail(file, line, "unexpected text after closing quote");
      closed = true;
      break;
    } else {
      out += c;
    }
  }
  if (!closed) fail(file, line, "unterminated string");
  return out;
}

Value parse_scalar(const std::string& file, int line, const std::string& text);

Value parse_array(const std::string& file, int line, const std::string& text) {
  Value v;
  v.type = Value::Type::Array;
  if (text.back() != ']') fail(file, line, "array does not end with ']'");
  const std::string body = trim(text.substr(1, text.size() - 2));
  if (body.empty()) return v;
  // Split on commas outside quotes (arrays are flat).
  std::size_t start = 0;
  bool in_string = false;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i < body.size() && in_string) {
      if (body[i] == '\\') ++i;
      else if (body[i] == '"') in_string = false;
      continue;
    }
    if (i < body.size() && body[i] == '"') {
      in_string = true;
      continue;
    }
    if (i == body.size() || body[i] == ',') {
      const std::string item = trim(body.substr(start, i - start));
      if (item.empty()) fail(file, line, "empty array element");
      if (item.front() == '[')
        fail(file, line, "nested arrays are not supported");
      v.items.push_back(parse_scalar(file, line, item));
      start = i + 1;
    }
  }
  if (in_string) fail(file, line, "unterminated string in array");
  return v;
}

Value parse_scalar(const std::string& file, int line,
                   const std::string& text) {
  Value v;
  if (text.front() == '"') {
    v.type = Value::Type::String;
    v.str = parse_quoted(file, line, text);
    return v;
  }
  if (text == "true" || text == "false") {
    v.type = Value::Type::Bool;
    v.boolean = text == "true";
    return v;
  }
  char* end = nullptr;
  v.type = Value::Type::Number;
  v.num = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == text.c_str())
    fail(file, line,
         "cannot parse value '" + text +
             "' (expected \"string\", number, true/false or [array])");
  // strtod accepts "nan", "inf" and overflowing literals like 1e999;
  // none of them is a meaningful scenario parameter, and a NaN slips
  // through every `x <= 0` validation downstream.
  if (!std::isfinite(v.num))
    fail(file, line,
         "numeric value '" + text + "' is not finite (NaN, infinity or "
         "out of double range)");
  return v;
}

std::vector<Section> parse_document(std::istream& in,
                                    const std::string& file) {
  std::vector<Section> sections;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string text = trim(strip_comment(raw));
    if (text.empty()) continue;
    if (text.front() == '[') {
      if (text.back() != ']')
        fail(file, line, "section header does not end with ']'");
      const std::string name = trim(text.substr(1, text.size() - 2));
      if (name.empty()) fail(file, line, "empty section name");
      sections.push_back(Section{name, line, {}});
      continue;
    }
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos)
      fail(file, line, "expected 'key = value' or '[section]'");
    const std::string key = trim(text.substr(0, eq));
    const std::string value_text = trim(text.substr(eq + 1));
    if (key.empty()) fail(file, line, "missing key before '='");
    if (value_text.empty()) fail(file, line, "missing value after '='");
    if (sections.empty())
      fail(file, line, "'" + key + "' appears before any [section]");
    Value value = value_text.front() == '['
                      ? parse_array(file, line, value_text)
                      : parse_scalar(file, line, value_text);
    for (const KeyVal& kv : sections.back().entries)
      if (kv.key == key)
        fail(file, line,
             "duplicate key '" + key + "' in [" + sections.back().name +
                 "] (first on line " + std::to_string(kv.line) + ")");
    sections.back().entries.push_back(KeyVal{key, std::move(value), line});
  }
  return sections;
}

// ---- typed binding -----------------------------------------------------

class Binder {
 public:
  explicit Binder(std::string file) : file_(std::move(file)) {}

  std::string string(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::String)
      fail(file_, kv.line, "'" + kv.key + "' must be a \"string\"");
    return kv.value.str;
  }
  double number(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::Number)
      fail(file_, kv.line, "'" + kv.key + "' must be a number");
    return kv.value.num;
  }
  long long integer(const KeyVal& kv) const {
    const double v = number(kv);
    if (!std::isfinite(v) || v != std::floor(v) || std::fabs(v) > 1e15)
      fail(file_, kv.line, "'" + kv.key + "' must be an integer");
    return static_cast<long long>(v);
  }
  bool boolean(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::Bool)
      fail(file_, kv.line, "'" + kv.key + "' must be true or false");
    return kv.value.boolean;
  }
  std::vector<double> numbers(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::Array)
      fail(file_, kv.line, "'" + kv.key + "' must be an array of numbers");
    std::vector<double> out;
    for (const Value& item : kv.value.items) {
      if (item.type != Value::Type::Number)
        fail(file_, kv.line, "'" + kv.key + "' must contain only numbers");
      out.push_back(item.num);
    }
    return out;
  }
  std::vector<int> integers(const KeyVal& kv) const {
    std::vector<int> out;
    for (const double v : numbers(kv)) {
      if (v != std::floor(v) || std::fabs(v) > 1e9)
        fail(file_, kv.line, "'" + kv.key + "' must contain only integers");
      out.push_back(static_cast<int>(v));
    }
    return out;
  }
  std::vector<bool> booleans(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::Array)
      fail(file_, kv.line, "'" + kv.key + "' must be an array of booleans");
    std::vector<bool> out;
    for (const Value& item : kv.value.items) {
      if (item.type != Value::Type::Bool)
        fail(file_, kv.line,
             "'" + kv.key + "' must contain only true/false");
      out.push_back(item.boolean);
    }
    return out;
  }
  std::vector<std::string> strings(const KeyVal& kv) const {
    if (kv.value.type != Value::Type::Array)
      fail(file_, kv.line, "'" + kv.key + "' must be an array of strings");
    std::vector<std::string> out;
    for (const Value& item : kv.value.items) {
      if (item.type != Value::Type::String)
        fail(file_, kv.line, "'" + kv.key + "' must contain only strings");
      out.push_back(item.str);
    }
    return out;
  }
  [[noreturn]] void unknown_key(const Section& s, const KeyVal& kv) const {
    fail(file_, kv.line,
         "unknown key '" + kv.key + "' in [" + s.name + "]");
  }
  const std::string& file() const { return file_; }

 private:
  std::string file_;
};

SchedulerKind scheduler_kind_from(const std::string& file, int line,
                                  const std::string& name) {
  if (name == "cpa") return SchedulerKind::Cpa;
  if (name == "mcpa") return SchedulerKind::Mcpa;
  if (name == "hcpa") return SchedulerKind::Hcpa;
  if (name == "delta") return SchedulerKind::RatsDelta;
  if (name == "time-cost") return SchedulerKind::RatsTimeCost;
  fail(file, line,
       "unknown scheduler kind '" + name +
           "' (expected cpa, mcpa, hcpa, delta or time-cost)");
}

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Cpa: return "cpa";
    case SchedulerKind::Mcpa: return "mcpa";
    case SchedulerKind::Hcpa: return "hcpa";
    case SchedulerKind::RatsDelta: return "delta";
    case SchedulerKind::RatsTimeCost: return "time-cost";
  }
  return "?";
}

void bind_scenario(const Binder& b, const Section& s, ScenarioSpec& spec) {
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "name") spec.name = b.string(kv);
    else if (kv.key == "kind") spec.kind = b.string(kv);
    else if (kv.key == "threads") {
      const long long v = b.integer(kv);
      if (v < 0) fail(b.file(), kv.line, "'threads' must be >= 0");
      spec.threads = static_cast<unsigned>(v);
    } else b.unknown_key(s, kv);
  }
}

void bind_platform(const Binder& b, const Section& s, PlatformSpec& p) {
  int preset_line = 0, custom_line = 0;
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "clusters") {
      p.presets = b.strings(kv);
      if (p.presets.empty())
        fail(b.file(), kv.line, "'clusters' must not be empty");
      preset_line = kv.line;
    } else if (kv.key == "cluster") {
      p.presets = {b.string(kv)};
      preset_line = kv.line;
    } else if (kv.key == "name") {
      p.name = b.string(kv);
      custom_line = kv.line;
    } else if (kv.key == "nodes") {
      const long long v = b.integer(kv);
      if (v <= 0) fail(b.file(), kv.line, "'nodes' must be positive");
      p.nodes = static_cast<int>(v);
      custom_line = kv.line;
    } else if (kv.key == "cabinets") {
      p.cabinet_nodes = b.integers(kv);
      if (p.cabinet_nodes.empty())
        fail(b.file(), kv.line,
             "'cabinets' must not be empty (a cluster needs nodes)");
      for (const int n : p.cabinet_nodes)
        if (n <= 0)
          fail(b.file(), kv.line, "'cabinets' entries must be positive");
      custom_line = kv.line;
    } else if (kv.key == "gflops") {
      p.gflops = b.number(kv);
      if (p.gflops <= 0) fail(b.file(), kv.line, "'gflops' must be positive");
      custom_line = kv.line;
    } else if (kv.key == "latency-us") {
      p.latency_us = b.number(kv);
      if (p.latency_us < 0)
        fail(b.file(), kv.line, "'latency-us' must be >= 0");
      custom_line = kv.line;
    } else if (kv.key == "bandwidth-gbps") {
      p.bandwidth_gbps = b.number(kv);
      if (p.bandwidth_gbps <= 0)
        fail(b.file(), kv.line, "'bandwidth-gbps' must be positive");
      custom_line = kv.line;
    } else if (kv.key == "uplink-latency-us") {
      p.uplink_latency_us = b.number(kv);
      if (p.uplink_latency_us < 0)
        fail(b.file(), kv.line, "'uplink-latency-us' must be >= 0");
      custom_line = kv.line;
    } else if (kv.key == "uplink-bandwidth-gbps") {
      p.uplink_bandwidth_gbps = b.number(kv);
      if (p.uplink_bandwidth_gbps <= 0)
        fail(b.file(), kv.line, "'uplink-bandwidth-gbps' must be positive");
      custom_line = kv.line;
    } else b.unknown_key(s, kv);
  }
  if (preset_line && custom_line)
    fail(b.file(), std::max(preset_line, custom_line),
         "[platform] mixes named clusters with custom-cluster keys");
  if (!p.cabinet_nodes.empty() && p.nodes > 0)
    fail(b.file(), custom_line, "[platform] has both 'nodes' and 'cabinets'");
}

void bind_workload(const Binder& b, const Section& s, WorkloadSpec& w) {
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "source") {
      const std::string v = b.string(kv);
      if (v == "corpus") w.source = WorkloadSpec::Source::Corpus;
      else if (v == "family") w.source = WorkloadSpec::Source::Family;
      else if (v == "generate") w.source = WorkloadSpec::Source::Generate;
      else if (v == "file") w.source = WorkloadSpec::Source::File;
      else
        fail(b.file(), kv.line,
             "unknown workload source '" + v +
                 "' (expected corpus, family, generate or file)");
    } else if (kv.key == "full") w.corpus.full = b.boolean(kv);
    else if (kv.key == "samples-random") {
      w.corpus.samples_random = static_cast<int>(b.integer(kv));
      if (w.corpus.samples_random < 0)
        fail(b.file(), kv.line, "'samples-random' must be >= 0");
    } else if (kv.key == "samples-kernel") {
      w.corpus.samples_kernel = static_cast<int>(b.integer(kv));
      if (w.corpus.samples_kernel < 0)
        fail(b.file(), kv.line, "'samples-kernel' must be >= 0");
    } else if (kv.key == "seed") {
      const long long v = b.integer(kv);
      if (v < 0) fail(b.file(), kv.line, "'seed' must be >= 0");
      w.corpus.seed = static_cast<std::uint64_t>(v);
    } else if (kv.key == "family") w.family = b.string(kv);
    else if (kv.key == "cap-per-family") {
      w.cap_per_family = static_cast<int>(b.integer(kv));
      if (w.cap_per_family < 0)
        fail(b.file(), kv.line, "'cap-per-family' must be >= 0");
    } else if (kv.key == "generator") w.generator = b.string(kv);
    else if (kv.key == "count") {
      w.count = static_cast<int>(b.integer(kv));
      if (w.count < 1) fail(b.file(), kv.line, "'count' must be >= 1");
    } else if (kv.key == "fft-k") {
      w.fft_k = static_cast<int>(b.integer(kv));
      // The FFT kernel generator requires a power of two (found by
      // fuzzing: the old [1, 16] range let k=3 through to a raw
      // requirement failure deep in daggen).
      if (w.fft_k < 2 || w.fft_k > 16 || (w.fft_k & (w.fft_k - 1)) != 0)
        fail(b.file(), kv.line,
             "'fft-k' must be a power of two in [2, 16]");
    } else if (kv.key == "tasks") {
      w.dag.num_tasks = static_cast<int>(b.integer(kv));
      if (w.dag.num_tasks < 1 || w.dag.num_tasks > 1000000)
        fail(b.file(), kv.line, "'tasks' must be in [1, 1000000]");
    } else if (kv.key == "width") {
      w.dag.width = b.number(kv);
      if (!(w.dag.width > 0) || w.dag.width > 1)
        fail(b.file(), kv.line, "'width' must be in (0, 1]");
    } else if (kv.key == "density") {
      w.dag.density = b.number(kv);
      if (!(w.dag.density > 0) || w.dag.density > 1)
        fail(b.file(), kv.line, "'density' must be in (0, 1]");
    } else if (kv.key == "regularity") {
      w.dag.regularity = b.number(kv);
      if (!(w.dag.regularity > 0) || w.dag.regularity > 1)
        fail(b.file(), kv.line, "'regularity' must be in (0, 1]");
    } else if (kv.key == "jump") {
      w.dag.jump = static_cast<int>(b.integer(kv));
      if (w.dag.jump < 1) fail(b.file(), kv.line, "'jump' must be >= 1");
    } else if (kv.key == "generate-seed") {
      const long long v = b.integer(kv);
      if (v < 0) fail(b.file(), kv.line, "'generate-seed' must be >= 0");
      w.generate_seed = static_cast<std::uint64_t>(v);
    } else if (kv.key == "path") w.path = b.string(kv);
    else b.unknown_key(s, kv);
  }
}

void bind_algorithms(const Binder& b, const Section& s, AlgorithmsSpec& a) {
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "preset") {
      const std::string v = b.string(kv);
      if (v != "naive" && v != "tuned")
        fail(b.file(), kv.line,
             "unknown algorithms preset '" + v + "' (expected naive or tuned)");
      a.preset = v;
    } else b.unknown_key(s, kv);
  }
}

void bind_algorithm(const Binder& b, const Section& s, AlgorithmsSpec& a) {
  AlgoSpec algo;
  bool have_kind = false;
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "name") algo.name = b.string(kv);
    else if (kv.key == "kind") {
      algo.options.kind =
          scheduler_kind_from(b.file(), kv.line, b.string(kv));
      have_kind = true;
    } else if (kv.key == "mindelta") algo.options.rats.mindelta = b.number(kv);
    else if (kv.key == "maxdelta") algo.options.rats.maxdelta = b.number(kv);
    else if (kv.key == "minrho") algo.options.rats.minrho = b.number(kv);
    else if (kv.key == "packing") algo.options.rats.packing = b.boolean(kv);
    else if (kv.key == "secondary-sort")
      algo.options.secondary_sort = b.boolean(kv);
    else b.unknown_key(s, kv);
  }
  if (!have_kind)
    fail(b.file(), s.line, "[algorithm] section is missing 'kind'");
  if (algo.name.empty()) algo.name = scheduler_kind_name(algo.options.kind);
  a.preset.clear();
  a.algos.push_back(std::move(algo));
}

void bind_sweep(const Binder& b, const Section& s, SweepSpec& sw) {
  // An explicitly written empty grid ([]) is always a mistake: the axis
  // would silently vanish from the sweep cross product (or leave fig4/
  // fig5 on their paper grids), which is indistinguishable from a typo.
  const auto grid = [&](const KeyVal& kv) {
    auto values = b.numbers(kv);
    if (values.empty())
      fail(b.file(), kv.line,
           "'" + kv.key + "' grid must not be empty (omit the key to use "
           "the default grid)");
    return values;
  };
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "mindelta") sw.mindeltas = grid(kv);
    else if (kv.key == "maxdelta") sw.maxdeltas = grid(kv);
    else if (kv.key == "minrho") sw.minrhos = grid(kv);
    else if (kv.key == "packing") {
      sw.packings = b.booleans(kv);
      if (sw.packings.empty())
        fail(b.file(), kv.line,
             "'packing' grid must not be empty (omit the key to use the "
             "default grid)");
    } else if (kv.key == "event-factor") {
      sw.event_factors = grid(kv);
      for (const double f : sw.event_factors)
        if (!(f > 0) || !std::isfinite(f))
          fail(b.file(), kv.line,
               "'event-factor' values must be finite and positive");
    } else if (kv.key == "event-at") {
      sw.event_ats = grid(kv);
      for (const double t : sw.event_ats)
        if (!(t >= 0) || !std::isfinite(t))
          fail(b.file(), kv.line,
               "'event-at' values must be finite and >= 0");
    } else if (kv.key == "base") {
      const std::string v = b.string(kv);
      if (v != "delta" && v != "time-cost")
        fail(b.file(), kv.line,
             "unknown sweep base '" + v + "' (expected delta or time-cost)");
      sw.base = v;
    } else b.unknown_key(s, kv);
  }
}

void bind_output(const Binder& b, const Section& s, OutputSpec& o) {
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "csv") o.csv = b.boolean(kv);
    else if (kv.key == "gantt") o.gantt = b.boolean(kv);
    else if (kv.key == "report-csv") {
      o.report_csv = b.string(kv);
      o.report_csv_line = kv.line;
    } else if (kv.key == "report-json") {
      o.report_json = b.string(kv);
      o.report_json_line = kv.line;
    } else if (kv.key == "trace") {
      o.trace = b.string(kv);
      o.trace_line = kv.line;
    } else if (kv.key == "trace-gzip") {
      o.trace_gzip = b.boolean(kv);
    } else b.unknown_key(s, kv);
  }
}

void bind_events(const Binder& b, const Section& s, EventsSpec& ev) {
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "on-fail") {
      const std::string v = b.string(kv);
      if (v == "reschedule") ev.timeline.on_fail = FailPolicy::Reschedule;
      else if (v == "hold") ev.timeline.on_fail = FailPolicy::Hold;
      else
        fail(b.file(), kv.line,
             "unknown on-fail policy '" + v +
                 "' (expected reschedule or hold)");
    } else b.unknown_key(s, kv);
  }
}

/// One parsed [event] section before node-set expansion.  `nodes` and
/// cabinet node groups are parse-time sugar: they expand into one
/// PlatformEvent per selected node (in selector order), so downstream —
/// the timeline, the simulator, canonical emission — only ever sees
/// per-node events and parse→emit stays byte-stable by construction.
struct ProtoEvent {
  PlatformEvent event;
  std::vector<int> nodes;  ///< nodes = [...] selector (empty: not given)
  /// True when `cabinet` selects the cabinet's *nodes* (node-event
  /// kinds) rather than its uplink pair (link-capacity).
  bool cabinet_group = false;
  int line = 0;  ///< section line, for expansion-time diagnostics
};

void bind_event(const Binder& b, const Section& s,
                std::vector<ProtoEvent>& protos) {
  ProtoEvent pe;
  pe.line = s.line;
  PlatformEvent& e = pe.event;
  bool have_kind = false, have_at = false, have_factor = false;
  int kind_line = s.line;
  for (const KeyVal& kv : s.entries) {
    if (kv.key == "at") {
      e.at = b.number(kv);
      have_at = true;
      if (!(e.at >= 0) || !std::isfinite(e.at))
        fail(b.file(), kv.line, "'at' must be finite and >= 0");
    } else if (kv.key == "kind") {
      const std::string v = b.string(kv);
      bool ok = false;
      e.kind = platform_event_kind_from(v, ok);
      if (!ok)
        fail(b.file(), kv.line,
             "unknown event kind '" + v +
                 "' (expected link-capacity, node-slowdown, node-fail or "
                 "node-restart)");
      have_kind = true;
      kind_line = kv.line;
    } else if (kv.key == "node") {
      e.node = static_cast<NodeId>(b.integer(kv));
      if (e.node < 0) fail(b.file(), kv.line, "'node' must be >= 0");
    } else if (kv.key == "nodes") {
      pe.nodes = b.integers(kv);
      if (pe.nodes.empty())
        fail(b.file(), kv.line, "'nodes' must not be empty");
      for (const int n : pe.nodes)
        if (n < 0) fail(b.file(), kv.line, "'nodes' entries must be >= 0");
    } else if (kv.key == "cabinet") {
      e.cabinet = static_cast<int>(b.integer(kv));
      if (e.cabinet < 0) fail(b.file(), kv.line, "'cabinet' must be >= 0");
    } else if (kv.key == "factor") {
      e.factor = b.number(kv);
      have_factor = true;
      if (!(e.factor > 0) || !std::isfinite(e.factor))
        fail(b.file(), kv.line, "'factor' must be finite and positive");
    } else b.unknown_key(s, kv);
  }
  if (!have_kind) fail(b.file(), s.line, "[event] section is missing 'kind'");
  if (!have_at) fail(b.file(), s.line, "[event] section is missing 'at'");
  const int selectors =
      (e.node >= 0 ? 1 : 0) + (!pe.nodes.empty() ? 1 : 0) +
      (e.cabinet >= 0 ? 1 : 0);
  const std::string what = std::string(to_string(e.kind)) + " event";
  if (selectors != 1)
    fail(b.file(), kind_line,
         what + " needs exactly one of 'node', 'nodes' or 'cabinet'");
  switch (e.kind) {
    case PlatformEventKind::LinkCapacity:
      // `cabinet` here keeps its link meaning: the cabinet's uplink
      // pair.  `nodes` expands to per-node NIC-pair events.
      if (!have_factor)
        fail(b.file(), kind_line, what + " is missing 'factor'");
      break;
    case PlatformEventKind::NodeSlowdown:
      if (!have_factor)
        fail(b.file(), kind_line, what + " is missing 'factor'");
      pe.cabinet_group = e.cabinet >= 0;
      break;
    case PlatformEventKind::NodeFail:
    case PlatformEventKind::NodeRestart:
      if (have_factor)
        fail(b.file(), kind_line, what + " does not take 'factor'");
      pe.cabinet_group = e.cabinet >= 0;
      break;
  }
  protos.push_back(std::move(pe));
}

/// Expands the node-set sugar of every [event] into per-node events, in
/// spec order (so same-instant batches apply exactly as written).
/// Cabinet node groups need the concrete cluster, which is why this
/// runs after all sections are bound.
void expand_events(const std::string& filename,
                   const std::vector<ProtoEvent>& protos, ScenarioSpec& spec) {
  std::vector<Cluster> clusters;
  bool resolved = false;
  auto& out = spec.events.timeline.events;
  for (const ProtoEvent& pe : protos) {
    if (!pe.nodes.empty()) {
      for (const int n : pe.nodes) {
        PlatformEvent e = pe.event;
        e.node = static_cast<NodeId>(n);
        out.push_back(e);
      }
      continue;
    }
    if (pe.cabinet_group) {
      if (!resolved) {
        try {
          clusters = spec.platform.resolve();
        } catch (const Error& err) {
          fail(filename, pe.line,
               std::string("cannot expand 'cabinet' into nodes: ") +
                   err.what());
        }
        resolved = true;
      }
      if (clusters.size() != 1)
        fail(filename, pe.line,
             "'cabinet' node groups need a single-cluster [platform]");
      const Cluster& cluster = clusters.front();
      const std::string what = std::string(to_string(pe.event.kind)) + " event";
      if (!cluster.hierarchical_topology())
        fail(filename, pe.line,
             what + " names cabinet " + std::to_string(pe.event.cabinet) +
                 " but cluster '" + cluster.name() + "' has a flat topology");
      if (pe.event.cabinet >= cluster.cabinets())
        fail(filename, pe.line,
             what + " names cabinet " + std::to_string(pe.event.cabinet) +
                 " but cluster '" + cluster.name() + "' has " +
                 std::to_string(cluster.cabinets()) + " cabinets");
      for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
        if (cluster.cabinet_of(n) != pe.event.cabinet) continue;
        PlatformEvent e = pe.event;
        e.cabinet = -1;
        e.node = n;
        out.push_back(e);
      }
      continue;
    }
    out.push_back(pe.event);
  }
}

}  // namespace

ScenarioSpec parse_scenario(std::istream& in, const std::string& filename) {
  obs::PhaseTimer span("parse");
  const Binder b(filename);
  const std::vector<Section> sections = parse_document(in, filename);
  ScenarioSpec spec;
  std::vector<ProtoEvent> protos;
  bool have_scenario = false, have_algorithms = false;
  int algorithms_line = 0;
  const Section* sweep = nullptr;
  // Non-repeatable sections seen so far (name -> first line).
  std::vector<std::pair<std::string, int>> seen;
  for (const Section& s : sections) {
    if (s.name != "algorithm" && s.name != "event") {
      for (const auto& [name, line] : seen)
        if (name == s.name)
          fail(filename, s.line,
               "duplicate section [" + s.name + "] (first on line " +
                   std::to_string(line) + ")");
      seen.emplace_back(s.name, s.line);
    }
    if (s.name == "scenario") {
      have_scenario = true;
      bind_scenario(b, s, spec);
    } else if (s.name == "platform") {
      bind_platform(b, s, spec.platform);
    } else if (s.name == "workload") {
      bind_workload(b, s, spec.workload);
    } else if (s.name == "algorithms") {
      have_algorithms = true;
      algorithms_line = s.line;
      bind_algorithms(b, s, spec.algorithms);
    } else if (s.name == "algorithm") {
      bind_algorithm(b, s, spec.algorithms);
    } else if (s.name == "sweep") {
      sweep = &s;
      bind_sweep(b, s, spec.sweep);
    } else if (s.name == "events") {
      bind_events(b, s, spec.events);
    } else if (s.name == "event") {
      bind_event(b, s, protos);
    } else if (s.name == "output") {
      bind_output(b, s, spec.output);
    } else {
      fail(filename, s.line,
           "unknown section [" + s.name +
               "] (expected scenario, platform, workload, algorithms, "
               "algorithm, events, event, sweep or output)");
    }
  }
  expand_events(filename, protos, spec);
  if (have_algorithms && !spec.algorithms.algos.empty())
    fail(filename, algorithms_line,
         "[algorithms] preset conflicts with explicit [algorithm] sections");
  if (!have_scenario) fail(filename, 1, "missing [scenario] section");
  if (spec.kind.empty())
    fail(filename, 1, "[scenario] section is missing 'kind'");
  if (sweep != nullptr) {
    for (const KeyVal& kv : sweep->entries) {
      const std::string why = unread_sweep_key(spec.kind, kv.key);
      if (!why.empty()) fail(filename, kv.line, why);
    }
  }
  if (spec.kind == "sweep") {
    // The generic sweep kind crosses the [sweep] grids over the base
    // algorithm; an all-empty section has nothing to sweep.
    if (sweep == nullptr)
      fail(filename, 1,
           "kind \"sweep\" needs a [sweep] section with at least one "
           "parameter grid");
    if (spec.sweep.empty())
      fail(filename, sweep->line,
           "[sweep] must give at least one non-empty grid (mindelta, "
           "maxdelta, minrho, packing, event-factor or event-at) for kind "
           "\"sweep\"");
  }
  if (spec.sweep.sweeps_events() && spec.events.empty())
    fail(filename, sweep != nullptr ? sweep->line : 1,
         "[sweep] has an event axis but the scenario has no [event] "
         "sections to sweep");
  if (spec.name.empty()) spec.name = spec.kind;
  spec.origin = filename;
  return spec;
}

ScenarioSpec parse_scenario_string(const std::string& text,
                                   const std::string& filename) {
  std::istringstream in(text);
  return parse_scenario(in, filename);
}

ScenarioSpec load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw Error(path + ": cannot open scenario file (no such file or "
                       "unreadable)");
  return parse_scenario(in, path);
}

// ---- canonical emission ------------------------------------------------

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') { out += "\\n"; continue; }
    if (c == '\t') { out += "\\t"; continue; }
    out += c;
  }
  out += '"';
  return out;
}

std::string num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

}  // namespace

std::string emit_scenario(const ScenarioSpec& spec) {
  std::string out;
  // The name is quoted on its key line below; the comment line gets a
  // sanitized copy (a raw newline or '#'-significant char here would
  // break the emitted text's own parse).
  std::string comment_name = spec.name;
  for (char& c : comment_name)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  out += "# " + comment_name + " — RATS scenario (canonical form)\n";
  out += "[scenario]\n";
  out += "name = " + quote(spec.name) + "\n";
  out += "kind = " + quote(spec.kind) + "\n";
  // `threads` is an execution detail, not scenario semantics: it is
  // parsed (so files may pin it) but never emitted, keeping canonical
  // text — and hence trace headers — identical across worker counts.

  const PlatformSpec& p = spec.platform;
  out += "\n[platform]\n";
  if (!p.is_custom()) {
    if (p.presets.size() == 1) {
      out += "cluster = " + quote(p.presets.front()) + "\n";
    } else {
      out += "clusters = [";
      for (std::size_t i = 0; i < p.presets.size(); ++i)
        out += (i ? ", " : "") + quote(p.presets[i]);
      out += "]\n";
    }
  } else {
    out += "name = " + quote(p.name) + "\n";
    if (!p.cabinet_nodes.empty()) {
      out += "cabinets = [";
      for (std::size_t i = 0; i < p.cabinet_nodes.size(); ++i)
        out += (i ? ", " : "") + std::to_string(p.cabinet_nodes[i]);
      out += "]\n";
    } else {
      out += "nodes = " + std::to_string(p.nodes) + "\n";
    }
    out += "gflops = " + num(p.gflops) + "\n";
    out += "latency-us = " + num(p.latency_us) + "\n";
    out += "bandwidth-gbps = " + num(p.bandwidth_gbps) + "\n";
    if (!p.cabinet_nodes.empty()) {
      out += "uplink-latency-us = " + num(p.uplink_latency_us) + "\n";
      out += "uplink-bandwidth-gbps = " + num(p.uplink_bandwidth_gbps) + "\n";
    }
  }

  const WorkloadSpec& w = spec.workload;
  out += "\n[workload]\n";
  switch (w.source) {
    case WorkloadSpec::Source::Corpus:
    case WorkloadSpec::Source::Family:
      out += std::string("source = ") +
             (w.source == WorkloadSpec::Source::Corpus ? "\"corpus\""
                                                       : "\"family\"") +
             "\n";
      if (w.source == WorkloadSpec::Source::Family)
        out += "family = " + quote(w.family) + "\n";
      out += std::string("full = ") + (w.corpus.full ? "true" : "false") +
             "\n";
      out += "samples-random = " + std::to_string(w.corpus.samples_random) +
             "\n";
      out += "samples-kernel = " + std::to_string(w.corpus.samples_kernel) +
             "\n";
      out += "seed = " + std::to_string(w.corpus.seed) + "\n";
      if (w.cap_per_family > 0)
        out += "cap-per-family = " + std::to_string(w.cap_per_family) + "\n";
      break;
    case WorkloadSpec::Source::Generate:
      out += "source = \"generate\"\n";
      out += "generator = " + quote(w.generator) + "\n";
      out += "count = " + std::to_string(w.count) + "\n";
      if (w.generator == "fft") {
        out += "fft-k = " + std::to_string(w.fft_k) + "\n";
      } else if (w.generator != "strassen") {
        out += "tasks = " + std::to_string(w.dag.num_tasks) + "\n";
        out += "width = " + num(w.dag.width) + "\n";
        out += "density = " + num(w.dag.density) + "\n";
        out += "regularity = " + num(w.dag.regularity) + "\n";
        if (w.generator == "irregular")
          out += "jump = " + std::to_string(w.dag.jump) + "\n";
      }
      out += "generate-seed = " + std::to_string(w.generate_seed) + "\n";
      break;
    case WorkloadSpec::Source::File:
      out += "source = \"file\"\n";
      out += "path = " + quote(w.path) + "\n";
      break;
  }

  const AlgorithmsSpec& a = spec.algorithms;
  if (!a.preset.empty()) {
    out += "\n[algorithms]\n";
    out += "preset = " + quote(a.preset) + "\n";
  } else {
    for (const AlgoSpec& algo : a.algos) {
      out += "\n[algorithm]\n";
      out += "name = " + quote(algo.name) + "\n";
      out += "kind = " + quote(scheduler_kind_name(algo.options.kind)) + "\n";
      if (algo.options.kind == SchedulerKind::RatsDelta) {
        out += "mindelta = " + num(algo.options.rats.mindelta) + "\n";
        out += "maxdelta = " + num(algo.options.rats.maxdelta) + "\n";
      }
      if (algo.options.kind == SchedulerKind::RatsTimeCost) {
        out += "minrho = " + num(algo.options.rats.minrho) + "\n";
        out += std::string("packing = ") +
               (algo.options.rats.packing ? "true" : "false") + "\n";
      }
      if (!algo.options.secondary_sort) out += "secondary-sort = false\n";
    }
  }

  // An empty timeline emits nothing: a spec with a bare [events]
  // section stays byte-identical to one without it, so healthy specs
  // (and the trace headers derived from them) never change.
  const EventsSpec& ev = spec.events;
  if (!ev.empty()) {
    out += "\n[events]\n";
    out += "on-fail = " + quote(to_string(ev.timeline.on_fail)) + "\n";
    for (const PlatformEvent& e : ev.timeline.events) {
      out += "\n[event]\n";
      out += "at = " + num(e.at) + "\n";
      out += "kind = " + quote(to_string(e.kind)) + "\n";
      if (e.node >= 0) out += "node = " + std::to_string(e.node) + "\n";
      if (e.cabinet >= 0)
        out += "cabinet = " + std::to_string(e.cabinet) + "\n";
      if (e.kind == PlatformEventKind::LinkCapacity ||
          e.kind == PlatformEventKind::NodeSlowdown)
        out += "factor = " + num(e.factor) + "\n";
    }
  }

  const SweepSpec& sw = spec.sweep;
  if (!sw.empty()) {
    out += "\n[sweep]\n";
    if (spec.kind == "sweep") out += "base = " + quote(sw.base) + "\n";
    if (!sw.mindeltas.empty())
      out += "mindelta = " + num_list(sw.mindeltas) + "\n";
    if (!sw.maxdeltas.empty())
      out += "maxdelta = " + num_list(sw.maxdeltas) + "\n";
    if (!sw.minrhos.empty()) out += "minrho = " + num_list(sw.minrhos) + "\n";
    if (!sw.packings.empty()) {
      out += "packing = [";
      for (std::size_t i = 0; i < sw.packings.size(); ++i)
        out += std::string(i ? ", " : "") + (sw.packings[i] ? "true" : "false");
      out += "]\n";
    }
    if (!sw.event_factors.empty())
      out += "event-factor = " + num_list(sw.event_factors) + "\n";
    if (!sw.event_ats.empty())
      out += "event-at = " + num_list(sw.event_ats) + "\n";
  }

  out += "\n[output]\n";
  out += std::string("csv = ") + (spec.output.csv ? "true" : "false") + "\n";
  if (spec.output.gantt) out += "gantt = true\n";
  if (!spec.output.report_csv.empty())
    out += "report-csv = " + quote(spec.output.report_csv) + "\n";
  if (!spec.output.report_json.empty())
    out += "report-json = " + quote(spec.output.report_json) + "\n";
  if (!spec.output.trace.empty())
    out += "trace = " + quote(spec.output.trace) + "\n";
  if (spec.output.trace_gzip) out += "trace-gzip = true\n";
  return out;
}

}  // namespace rats::scenario
