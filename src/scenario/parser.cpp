#include "scenario/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"
#include "common/format.hpp"
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

// ---- value rules -------------------------------------------------------

/// A numeric value rule: `ok` tests a value (each entry of an array)
/// and `says` what it requires.
struct Rule {
  bool (*ok)(double) = nullptr;
  const char* says = nullptr;
};

constexpr Rule kPositive{[](double v) { return v > 0; }, "must be positive"};
constexpr Rule kNonNegative{[](double v) { return v >= 0; }, "must be >= 0"};
constexpr Rule kAtLeastOne{[](double v) { return v >= 1; }, "must be >= 1"};
constexpr Rule kUnit{[](double v) { return v > 0 && v <= 1; },
                     "must be in (0, 1]"};
constexpr Rule kTasks{[](double v) { return v >= 1 && v <= 1e6; },
                      "must be in [1, 1000000]"};
// The FFT kernel generator needs a power of two (fuzzing found k = 3
// failing a requirement deep in daggen).
constexpr Rule kFftK{[](double v) {
                       const int k = static_cast<int>(v);
                       return k >= 2 && k <= 16 && (k & (k - 1)) == 0;
                     },
                     "must be a power of two in [2, 16]"};
constexpr Rule kTime{kNonNegative.ok, "must be finite and >= 0"};
constexpr Rule kFactor{kPositive.ok, "must be finite and positive"};

/// A string key with fixed values: an enum's names in enum order, or a
/// string member's allowed values.
struct Choice {
  const char* what;
  std::initializer_list<const char*> names;
};

constexpr Choice kSources{"workload source",
                          {"corpus", "family", "generate", "file"}};
constexpr Choice kSchedulers{"scheduler kind",
                             {"cpa", "mcpa", "hcpa", "delta", "time-cost"}};
constexpr Choice kEventKinds{
    "event kind",
    {"link-capacity", "node-slowdown", "node-fail", "node-restart"}};
constexpr Choice kPolicies{"on-fail policy", {"reschedule", "hold"}};
constexpr Choice kPresets{"algorithms preset", {"naive", "tuned"}};
constexpr Choice kBases{"sweep base", {"delta", "time-cost"}};

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

// ---- the key lists -----------------------------------------------------
//
// Each section's keys are written once, as an ordered list that three
// archives walk: Bind sets a spec from text, Check rejects a section or
// key that a spec gives but does not read, and Emit writes canonical
// text.  An entry
//
//   a.key(name, member, rule, read, emit)
//
// names the key's target member (whose type is the value's), its value
// rule, whether this spec reads it, and whether canonical text writes
// it when read: false leaves out a default that stays implicit, and an
// empty array is never written.  `read` is computed from the spec
// itself, so Check and Emit walk bound specs only.  A list opens with
// the same for its section, whose keys are read only when it is.

/// Whether a spec reads a key or section.  `why` is null when the
/// spec's own values let it, else the condition they miss; `input`,
/// when set, is the optional input it gives (registry.hpp), which the
/// spec's kind must read.
struct Read {
  Read() = default;
  Read(Input in) : input(in) {}
  const char* why = nullptr;
  std::optional<Input> input;
};

Read when(bool holds, const char* why) {
  Read r;
  if (!holds) r.why = why;
  return r;
}

/// `cluster = "x"`: a `clusters` list of one.
template <class V>
struct One {
  V& list;
};

template <class A, class S>
void scenario_keys(A& a, S& s) {
  a.section("scenario");
  a.key("name", s.name);
  a.key("kind", s.kind);
  // An execution detail, not semantics: never emitted, so canonical
  // text (and the trace headers holding it) stay the same across
  // worker counts.
  a.key("threads", s.threads, {}, {}, false);
}

template <class A, class S>
void platform_keys(A& a, S& s) {
  auto& p = s.platform;
  const bool custom = p.presets.empty();
  const Read in_custom = when(custom, "in a custom cluster");
  const Read with_cabinets =
      when(custom && !p.cabinet_nodes.empty(), "with 'cabinets'");
  a.section("platform");
  a.key("clusters", p.presets, {}, {}, p.presets.size() > 1);
  a.key("cluster", One{p.presets}, {}, {}, p.presets.size() == 1);
  a.key("name", p.name, {}, in_custom);
  a.key("cabinets", p.cabinet_nodes, kPositive, in_custom);
  // 0 nodes is an unset platform, which parses back without the key.
  a.key("nodes", p.nodes, kPositive, in_custom,
        p.cabinet_nodes.empty() && p.nodes > 0);
  a.key("gflops", p.gflops, kPositive, in_custom);
  a.key("latency-us", p.latency_us, kNonNegative, in_custom);
  a.key("bandwidth-gbps", p.bandwidth_gbps, kPositive, in_custom);
  a.key("uplink-latency-us", p.uplink_latency_us, kNonNegative,
        with_cabinets);
  a.key("uplink-bandwidth-gbps", p.uplink_bandwidth_gbps, kPositive,
        with_cabinets);
}

template <class A, class S>
void workload_keys(A& a, S& s) {
  auto& w = s.workload;
  using Source = WorkloadSpec::Source;
  const bool generate = w.source == Source::Generate;
  const Read corpus =
      when(w.source == Source::Corpus || w.source == Source::Family,
           "with source = \"corpus\" or \"family\"");
  const Read generated = when(generate, "with source = \"generate\"");
  const Read random = when(
      generate && w.generator != "fft" && w.generator != "strassen",
      "with source = \"generate\" and a layered or irregular generator");
  a.section("workload");
  a.key("source", w.source, kSources,
        w.source == Source::Corpus ? Read{} : Read{Input::kOtherSources});
  a.key("family", w.family, {},
        when(w.source == Source::Family, "with source = \"family\""));
  a.key("full", w.corpus.full, {}, corpus);
  a.key("samples-random", w.corpus.samples_random, kNonNegative, corpus);
  a.key("samples-kernel", w.corpus.samples_kernel, kNonNegative, corpus);
  a.key("seed", w.corpus.seed, {}, corpus);
  a.key("cap-per-family", w.cap_per_family, kNonNegative, corpus,
        w.cap_per_family > 0);
  a.key("generator", w.generator, {}, generated);
  a.key("count", w.count, kAtLeastOne, generated);
  a.key("fft-k", w.fft_k, kFftK,
        when(generate && w.generator == "fft",
             "with source = \"generate\" and generator = \"fft\""));
  a.key("tasks", w.dag.num_tasks, kTasks, random);
  a.key("width", w.dag.width, kUnit, random);
  a.key("density", w.dag.density, kUnit, random);
  a.key("regularity", w.dag.regularity, kUnit, random);
  a.key("jump", w.dag.jump, kAtLeastOne,
        when(generate && w.generator == "irregular",
             "with source = \"generate\" and generator = \"irregular\""));
  a.key("generate-seed", w.generate_seed, {}, generated);
  a.key("path", w.path, {},
        when(w.source == Source::File, "with source = \"file\""));
}

template <class A, class S>
void algorithms_keys(A& a, S& s) {
  auto& al = s.algorithms;
  a.section("algorithms", al.tuned() ? Read{Input::kTunedPreset} : Read{},
            !al.preset.empty());
  a.key("preset", al.preset, kPresets);
}

template <class A, class Algo>
void algorithm_keys(A& a, Algo& algo) {
  auto& o = algo.options;
  const Read delta =
      when(o.kind == SchedulerKind::RatsDelta, "by a delta [algorithm]");
  const Read time_cost = when(o.kind == SchedulerKind::RatsTimeCost,
                              "by a time-cost [algorithm]");
  a.section("algorithm", Input::kAlgorithmList);
  a.key("name", algo.name);
  a.key("kind", o.kind, kSchedulers);
  a.key("mindelta", o.rats.mindelta, {}, delta);
  a.key("maxdelta", o.rats.maxdelta, {}, delta);
  a.key("minrho", o.rats.minrho, {}, time_cost);
  a.key("packing", o.rats.packing, {}, time_cost);
  a.key("secondary-sort", o.secondary_sort, {}, {}, !o.secondary_sort);
}

template <class A, class S>
void events_keys(A& a, S& s) {
  auto& timeline = s.events.timeline;
  // A bare [events] emits nothing: healthy specs, and the trace headers
  // holding them, stay the same with or without it.
  a.section("events", {}, !timeline.empty());
  a.key("on-fail", timeline.on_fail, kPolicies, Input::kEvents);
}

template <class A, class P>
void event_keys(A& a, P& pe) {
  auto& e = pe.event;
  a.section("event", Input::kEvents);
  a.key("at", e.at, kTime);
  a.key("kind", e.kind, kEventKinds);
  a.key("node", e.node, kNonNegative, {}, e.node >= 0);
  a.key("nodes", pe.nodes, kNonNegative);
  a.key("cabinet", e.cabinet, kNonNegative, {}, e.cabinet >= 0);
  a.key("factor", e.factor, kFactor,
        when(e.kind == PlatformEventKind::LinkCapacity ||
                 e.kind == PlatformEventKind::NodeSlowdown,
             "by link-capacity and node-slowdown events"));
}

template <class A, class S>
void sweep_keys(A& a, S& s) {
  auto& sw = s.sweep;
  a.section("sweep", {}, !sw.empty());
  a.key("base", sw.base, kBases, Input::kBase);
  a.key("mindelta", sw.mindeltas, {}, Input::kMindelta);
  a.key("maxdelta", sw.maxdeltas, {}, Input::kMaxdelta);
  a.key("minrho", sw.minrhos, {}, Input::kMinrho);
  a.key("packing", sw.packings, {}, Input::kPacking);
  a.key("event-factor", sw.event_factors, kFactor, Input::kEventFactor);
  a.key("event-at", sw.event_ats, kTime, Input::kEventAt);
}

template <class A, class S>
void output_keys(A& a, S& s) {
  auto& o = s.output;
  a.section("output");
  a.key("csv", o.csv);
  a.key("gantt", o.gantt, {}, {}, o.gantt);
  a.key("report-csv", o.report_csv, {}, {}, !o.report_csv.empty());
  a.key("report-json", o.report_json, {}, {}, !o.report_json.empty());
  a.key("trace", o.trace, {}, {}, !o.trace.empty());
  a.key("trace-gzip", o.trace_gzip, {}, {}, o.trace_gzip);
}

/// Calls `visit` with a generic lambda walking the key list of section
/// `name` (its `index`-th element when repeatable); false when no
/// section has that name.
template <class F>
bool with_keys(const std::string& name, std::size_t index,
               ScenarioSpec& spec, std::vector<ProtoEvent>& protos,
               F&& visit) {
  if (name == "scenario") visit([&](auto& a) { scenario_keys(a, spec); });
  else if (name == "platform") visit([&](auto& a) { platform_keys(a, spec); });
  else if (name == "workload") visit([&](auto& a) { workload_keys(a, spec); });
  else if (name == "algorithms")
    visit([&](auto& a) { algorithms_keys(a, spec); });
  else if (name == "algorithm")
    visit([&](auto& a) { algorithm_keys(a, spec.algorithms.algos[index]); });
  else if (name == "events") visit([&](auto& a) { events_keys(a, spec); });
  else if (name == "event")
    visit([&](auto& a) { event_keys(a, protos[index]); });
  else if (name == "sweep") visit([&](auto& a) { sweep_keys(a, spec); });
  else if (name == "output") visit([&](auto& a) { output_keys(a, spec); });
  else return false;
  return true;
}

// ---- the archives ------------------------------------------------------

/// True when a spec of `kind` reads `read`.
bool reads(const Read& read, const std::string& kind) {
  return read.why == nullptr &&
         (!read.input || unread(kind, *read.input).empty());
}

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

/// "a, b or c".
std::string one_of(std::initializer_list<const char*> names) {
  std::string out = names.begin()[0];
  for (std::size_t i = 1; i < names.size(); ++i)
    out += (i + 1 < names.size() ? ", " : " or ") +
           std::string(names.begin()[i]);
  return out;
}

/// Binds one given key, `kv`, to its list entry.  One walk per key keeps
/// the errors in the text's order.
class Bind {
 public:
  Bind(const std::string& file, const Section& s, const KeyVal& kv)
      : file_(file), section_(s.name), kv_(kv) {}
  bool found() const { return found_; }

  void section(const char*, const Read& = {}, bool = true) {}
  template <class T, class R = Rule>
  void key(std::string_view name, T&& target, const R& rule = {},
           const Read& = {}, bool = true) {
    if (found_ || kv_.key != name) return;
    found_ = true;
    set(target, rule);
  }

 private:
  [[noreturn]] void fail_key(const std::string& what) const {
    fail(file_, kv_.line, "'" + kv_.key + "' " + what);
  }

  // Scalar conversions; an array `item` says "must contain only ...".
  void get(const Value& v, std::string& out, bool item) const {
    if (v.type != Value::Type::String)
      fail_key(item ? "must contain only strings" : "must be a \"string\"");
    out = v.str;
  }
  void get(const Value& v, bool& out, bool item) const {
    if (v.type != Value::Type::Bool)
      fail_key(item ? "must contain only true/false"
                    : "must be true or false");
    out = v.boolean;
  }
  void get(const Value& v, double& out, bool item) const {
    if (v.type != Value::Type::Number)
      fail_key(item ? "must contain only numbers" : "must be a number");
    out = v.num;
  }
  /// An integer must fit its member's type, and stay exact as a double.
  template <std::integral I>
  void get(const Value& v, I& out, bool item) const {
    double d = 0;
    get(v, d, item);
    const double lo = std::max<double>(std::numeric_limits<I>::min(), -1e15);
    const double hi = std::min<double>(std::numeric_limits<I>::max(), 1e15);
    if (d != std::floor(d) || d < lo || d > hi)
      fail_key(strf(item ? "must contain only integers in [%.0f, %.0f]"
                         : "must be an integer in [%.0f, %.0f]",
                    lo, hi));
    out = static_cast<I>(d);
  }

  template <class T>
  void test(const Rule& rule, const T& value, const char* noun) const {
    if constexpr (std::is_arithmetic_v<T>)
      if (rule.ok != nullptr && !rule.ok(static_cast<double>(value)))
        fail_key(noun + std::string(rule.says));
  }

  template <class T>
  void set(T& target, const Rule& rule) {
    get(kv_.value, target, false);
    test(rule, target, "");
  }
  template <class T>
  void set(std::vector<T>& target, const Rule& rule) {
    if (kv_.value.type != Value::Type::Array)
      fail_key(std::string("must be an array of ") +
               (std::is_same_v<T, bool>          ? "booleans"
                : std::is_same_v<T, std::string> ? "strings"
                                                 : "numbers"));
    target.clear();
    for (const Value& item : kv_.value.items) {
      T value{};
      get(item, value, true);
      test(rule, value, "entries ");
      target.push_back(value);
    }
    // An empty grid would silently drop its axis from the sweep (or
    // leave fig4/fig5 on the paper's grid), like a typo would.
    if (target.empty())
      fail_key(section_ == "sweep" ? "grid must not be empty (omit the key "
                                     "to use the default grid)"
                                   : "must not be empty");
  }
  template <class V>
  void set(One<V>& target, const Rule&) {
    std::string name;
    get(kv_.value, name, false);
    target.list = {name};
  }
  template <class T>
  void set(T& target, const Choice& choice) {
    std::string name;
    get(kv_.value, name, false);
    const auto it = std::find(choice.names.begin(), choice.names.end(), name);
    if (it == choice.names.end())
      fail(file_, kv_.line,
           "unknown " + std::string(choice.what) + " '" + name +
               "' (expected " + one_of(choice.names) + ")");
    if constexpr (std::is_enum_v<T>)
      target = static_cast<T>(it - choice.names.begin());
    else
      target = name;
  }

  const std::string& file_;
  const std::string& section_;
  const KeyVal& kv_;
  bool found_ = false;
};

/// Fails on the first section or key that `s` gives but the spec does
/// not read.  It only tests the read flags, once every section is bound.
class Check {
 public:
  Check(const std::string& file, const Section& s, const std::string& kind)
      : file_(file), s_(s), kind_(kind) {}

  void section(const char*, const Read& read = {}, bool = true) const {
    if (!reads(read, kind_))
      fail(file_, s_.line, error(read, "[" + s_.name + "]"));
  }
  template <class T, class R = Rule>
  void key(std::string_view name, const T&, const R& = {},
           const Read& read = {}, bool = true) const {
    if (read.why == nullptr && !read.input) return;
    for (const KeyVal& kv : s_.entries)
      if (kv.key == name && !reads(read, kind_))
        fail(file_, kv.line,
             error(read, "[" + s_.name + "] key '" + kv.key + "'"));
  }

 private:
  std::string error(const Read& read, const std::string& what) const {
    return read.why != nullptr ? what + " is read only " + read.why
                               : unread(kind_, *read.input);
  }

  const std::string& file_;
  const Section& s_;
  const std::string& kind_;
};

/// Writes canonical text: each read section and key in list order, but
/// the implicit ones.
class Emit {
 public:
  explicit Emit(const std::string& kind) : kind_(kind) {}
  std::string out;

  void section(const char* name, const Read& read = {}, bool emit = true) {
    on_ = emit && reads(read, kind_);
    if (!on_) return;
    if (sections_++ > 0) out += '\n';
    out += std::string("[") + name + "]\n";
  }
  template <class T, class R = Rule>
  void key(std::string_view name, const T& value, const R& rule = {},
           const Read& read = {}, bool emit = true) {
    if (!on_ || !emit || empty(value) || !reads(read, kind_)) return;
    out += name;
    out += " = ";
    if constexpr (std::is_enum_v<T>)  // `rule` is its Choice
      out += quote(rule.names.begin()[static_cast<int>(value)]);
    else
      out += plain(value);
    out += '\n';
  }

 private:
  template <class T>
  static bool empty(const T&) { return false; }
  template <class T>
  static bool empty(const std::vector<T>& v) { return v.empty(); }

  static std::string plain(const std::string& v) { return quote(v); }
  static std::string plain(bool v) { return v ? "true" : "false"; }
  static std::string plain(double v) {
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= 1e15)
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    else
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  template <std::integral I>
  static std::string plain(I v) { return std::to_string(v); }
  template <class V>
  static std::string plain(const One<V>& v) { return quote(v.list.front()); }
  template <class T>
  static std::string plain(const std::vector<T>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i ? ", " : "") + plain(static_cast<T>(values[i]));
    return out + "]";
  }

  const std::string& kind_;
  bool on_ = false;
  int sections_ = 0;
};

// ---- checks that tie keys together -------------------------------------

/// The line of `key` in `s` (0 when `s` does not give it).
int line_of(const Section& s, const char* key) {
  for (const KeyVal& kv : s.entries)
    if (kv.key == key) return kv.line;
  return 0;
}

void finish_event(const std::string& file, const Section& s,
                  ProtoEvent& pe) {
  const PlatformEvent& e = pe.event;
  const int kind_line = line_of(s, "kind");
  if (kind_line == 0) fail(file, s.line, "[event] section is missing 'kind'");
  if (line_of(s, "at") == 0)
    fail(file, s.line, "[event] section is missing 'at'");
  const int selectors = (e.node >= 0 ? 1 : 0) + (!pe.nodes.empty() ? 1 : 0) +
                        (e.cabinet >= 0 ? 1 : 0);
  const std::string what = std::string(to_string(e.kind)) + " event";
  if (selectors != 1)
    fail(file, kind_line,
         what + " needs exactly one of 'node', 'nodes' or 'cabinet'");
  const bool scales = e.kind == PlatformEventKind::LinkCapacity ||
                      e.kind == PlatformEventKind::NodeSlowdown;
  const bool have_factor = line_of(s, "factor") != 0;
  if (scales && !have_factor)
    fail(file, kind_line, what + " is missing 'factor'");
  if (!scales && have_factor)
    fail(file, kind_line, what + " does not take 'factor'");
  // On a link-capacity event `cabinet` keeps its link meaning (the
  // cabinet's uplink pair); `nodes` expands to per-node NIC-pair events.
  pe.cabinet_group =
      e.kind != PlatformEventKind::LinkCapacity && e.cabinet >= 0;
  pe.line = s.line;
}

/// Checks a bound section's keys against each other.
void finish_section(const std::string& file, const Section& s,
                    ScenarioSpec& spec, std::vector<ProtoEvent>& protos) {
  if (s.name == "platform") {
    int preset_line = 0, custom_line = 0;
    for (const KeyVal& kv : s.entries)
      (kv.key == "cluster" || kv.key == "clusters" ? preset_line
                                                   : custom_line) = kv.line;
    if (preset_line && custom_line)
      fail(file, std::max(preset_line, custom_line),
           "[platform] mixes named clusters with custom-cluster keys");
    if (!spec.platform.cabinet_nodes.empty() && spec.platform.nodes > 0)
      fail(file, custom_line, "[platform] has both 'nodes' and 'cabinets'");
  } else if (s.name == "algorithm") {
    AlgoSpec& algo = spec.algorithms.algos.back();
    if (line_of(s, "kind") == 0)
      fail(file, s.line, "[algorithm] section is missing 'kind'");
    if (algo.name.empty())
      algo.name =
          kSchedulers.names.begin()[static_cast<int>(algo.options.kind)];
    spec.algorithms.preset.clear();
  } else if (s.name == "event") {
    finish_event(file, s, protos.back());
  } else if (s.name == "output") {
    spec.output.report_csv_line = line_of(s, "report-csv");
    spec.output.report_json_line = line_of(s, "report-json");
    spec.output.trace_line = line_of(s, "trace");
  }
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
  const std::vector<Section> sections = parse_document(in, filename);
  ScenarioSpec spec;
  std::vector<ProtoEvent> protos;
  // The element each repeatable section binds, and the first line of
  // each other section.
  std::vector<std::size_t> element(sections.size());
  std::vector<std::pair<std::string, int>> seen;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    if (s.name == "algorithm") {
      element[i] = spec.algorithms.algos.size();
      spec.algorithms.algos.emplace_back();
    } else if (s.name == "event") {
      element[i] = protos.size();
      protos.emplace_back();
    } else {
      for (const auto& [name, line] : seen)
        if (name == s.name)
          fail(filename, s.line,
               "duplicate section [" + s.name + "] (first on line " +
                   std::to_string(line) + ")");
      seen.emplace_back(s.name, s.line);
    }
    const bool known =
        with_keys(s.name, element[i], spec, protos, [&](auto&& keys) {
          for (const KeyVal& kv : s.entries) {
            Bind bind(filename, s, kv);
            keys(bind);
            if (!bind.found())
              fail(filename, kv.line,
                   "unknown key '" + kv.key + "' in [" + s.name + "]");
          }
        });
    if (!known)
      fail(filename, s.line,
           "unknown section [" + s.name +
               "] (expected scenario, platform, workload, algorithms, "
               "algorithm, events, event, sweep or output)");
    finish_section(filename, s, spec, protos);
  }
  expand_events(filename, protos, spec);
  const auto section_line = [&](const char* name) {
    for (const auto& [n, line] : seen)
      if (n == name) return line;
    return 0;
  };
  const int algorithms_line = section_line("algorithms");
  if (algorithms_line != 0 && !spec.algorithms.algos.empty())
    fail(filename, algorithms_line,
         "[algorithms] preset conflicts with explicit [algorithm] sections");
  if (section_line("scenario") == 0)
    fail(filename, 1, "missing [scenario] section");
  if (spec.kind.empty())
    fail(filename, 1, "[scenario] section is missing 'kind'");
  // Every section and key given must be read, now that the flags can
  // be computed.
  for (std::size_t i = 0; i < sections.size(); ++i)
    with_keys(sections[i].name, element[i], spec, protos, [&](auto&& keys) {
      Check check(filename, sections[i], spec.kind);
      keys(check);
    });
  const int sweep_line = section_line("sweep");
  if (spec.kind == "sweep") {
    // The generic sweep kind crosses the [sweep] grids over the base
    // algorithm; an all-empty section has nothing to sweep.
    if (sweep_line == 0)
      fail(filename, 1,
           "kind \"sweep\" needs a [sweep] section with at least one "
           "parameter grid");
    if (spec.sweep.empty())
      fail(filename, sweep_line,
           "[sweep] must give at least one non-empty grid (mindelta, "
           "maxdelta, minrho, packing, event-factor or event-at) for kind "
           "\"sweep\"");
  }
  if (spec.sweep.sweeps_events() && spec.events.empty())
    fail(filename, sweep_line != 0 ? sweep_line : 1,
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

std::string emit_scenario(const ScenarioSpec& spec) {
  Emit e(spec.kind);
  // The name is quoted on its key line; the comment line gets a copy
  // without control characters, which would break the text's own parse.
  std::string comment_name = spec.name;
  for (char& c : comment_name)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  e.out = "# " + comment_name + " — RATS scenario (canonical form)\n";
  scenario_keys(e, spec);
  platform_keys(e, spec);
  workload_keys(e, spec);
  algorithms_keys(e, spec);
  if (spec.algorithms.preset.empty())
    for (const AlgoSpec& algo : spec.algorithms.algos) algorithm_keys(e, algo);
  events_keys(e, spec);
  for (const PlatformEvent& event : spec.events.timeline.events) {
    const ProtoEvent pe{event, {}};
    event_keys(e, pe);
  }
  sweep_keys(e, spec);
  output_keys(e, spec);
  return std::move(e.out);
}

}  // namespace rats::scenario
