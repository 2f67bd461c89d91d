// atlas_perfbench: times one workload through the ATLAS public API and
// checks its outputs. perfbench/run.py builds and drives it; see
// perfbench/README.md.
//
//   atlas_perfbench --mode measure|traced|pin --workload NAME --seed N
//                   --seconds S --root CHECKOUT --workdir DIR
//                   [--scale X] [--gate-seed N]
//                   [--expect SEED:TRACE:REPORT:ENERGY]... [--spans-out F]
//
// measure  one gate pass at --gate-seed, then untraced passes for --seconds
//          (at least one) at seeds derived from --seed (PassSeeds), with the
//          speed probe before the first pass and after each one.
// traced   gate pass, speed probe, then rounds for --seconds (at least one)
//          of: untraced pass, traced pass of the workload's own kind, traced
//          pass of the other kind (plain <-> crash), traced plain pass of
//          trend_report (the trend probe). Spans go to --spans-out.
// pin      one uninterrupted plain pass per --seed; prints its digests.
//
// --expect pins the digests (hex) of the plain pass at SEED; every pass at
// a pinned seed must match, and every pass must match the first pass at its
// own seed. A mismatch or an exception is a failed operation. Prints one
// JSON object as the last line of stdout.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "spans.h"
#include "util/logging.h"
#include "util/par.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 10.0;
  std::string root = ".";
  std::string workdir = ".";
  double scale = 0.0;  // 0 = the workload's own
  std::uint64_t gate_seed = 42;
  std::map<std::uint64_t, Digests> expect;
  std::string spans_out;
};

// One worker: on a shared VM, two workers waiting on each other at every
// engine barrier turned host steal into 2x swings of simulate_s between
// runs, where one worker's phases held within a few percent.
constexpr int kThreads = 1;

// An untraced run measures a family of inputs: pass i runs seed
// kSeedsPerRun * --seed + i mod kSeedsPerRun. The seed sets the workload's
// content and so its size (one seed's pass differs from another's by up to
// a few percent), and a median over several seeds moves less with one of
// them than a single seed's would.
constexpr std::uint64_t kSeedsPerRun = 5;

std::vector<std::uint64_t> PassSeeds(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < kSeedsPerRun; ++i) {
    seeds.push_back(seed * kSeedsPerRun + i);
  }
  return seeds;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Digests ParseExpect(const std::string& text, std::uint64_t& seed) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  for (std::string part; std::getline(ss, part, ':');) parts.push_back(part);
  if (parts.size() != 4) {
    throw std::invalid_argument("--expect wants SEED:TRACE:REPORT:ENERGY");
  }
  seed = std::stoull(parts[0]);
  return {std::stoull(parts[1], nullptr, 16), std::stoull(parts[2], nullptr, 16),
          std::stoull(parts[3], nullptr, 16)};
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--mode") a.mode = v;
    else if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seeds.push_back(std::stoull(v));
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--root") a.root = v;
    else if (flag == "--workdir") a.workdir = v;
    else if (flag == "--scale") a.scale = std::stod(v);
    else if (flag == "--gate-seed") a.gate_seed = std::stoull(v);
    else if (flag == "--spans-out") a.spans_out = v;
    else if (flag == "--expect") {
      std::uint64_t seed = 0;
      const Digests d = ParseExpect(v, seed);
      a.expect[seed] = d;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.mode != "measure" && a.mode != "traced" && a.mode != "pin") {
    throw std::invalid_argument("--mode must be measure, traced or pin");
  }
  if (a.seeds.empty()) throw std::invalid_argument("--seed is required");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Counts operations and checks every pass's digests.
class Ledger {
 public:
  Ledger(const Workload& w, const std::map<std::uint64_t, Digests>& expect)
      : energy_(w.crash), expect_(expect) {}

  // Runs one pass; false if it threw or its digests disagree. A probe pass
  // runs another spec, so it is only held to earlier probe passes.
  template <typename Fn>
  bool Run(const std::string& kind, std::uint64_t seed, Fn&& fn, Pass& out,
           bool probe = false) {
    ++attempted_;
    std::string error;
    try {
      out = fn();
      error = probe ? Repeat(probe_seen_, seed, out.digests)
                    : Mismatch(seed, out.digests);
    } catch (const std::exception& e) {
      error = e.what();
    }
    records_.push_back({kind, seed, error.empty(), out.phases, out.digests});
    if (!error.empty()) {
      ++failed_;
      errors_.push_back(kind + " pass at seed " + std::to_string(seed) + ": " +
                        error);
      return false;
    }
    return true;
  }

  // The last pass's host speed (the mean of the probes before and after
  // it) and its own peak RSS.
  void Annotate(double probe_s, double peak_rss_mb) {
    records_.back().probe_s = probe_s;
    records_.back().peak_rss_mb = peak_rss_mb;
  }

  std::string PassesJson() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const Phases& p = r.phases;
      os << (i ? ", " : "") << "{\"kind\": " << Quote(r.kind)
         << ", \"seed\": " << r.seed
         << ", \"ok\": " << (r.ok ? "true" : "false")
         << ", \"setup_s\": " << Num(p.setup_s)
         << ", \"simulate_s\": " << Num(p.simulate_s)
         << ", \"analyze_s\": " << Num(p.analyze_s)
         << ", \"wall_s\": " << Num(p.wall_s) << ", \"cpu_s\": " << Num(p.cpu_s);
      if (r.probe_s > 0.0) {
        os << ", \"probe_s\": " << Num(r.probe_s)
           << ", \"peak_rss_mb\": " << Num(r.peak_rss_mb);
      }
      os << ", \"trace\": \"" << Hex(r.digests.trace) << "\", \"report\": \""
         << Hex(r.digests.report) << "\", \"energy\": \""
         << Hex(r.digests.energy) << "\"}";
    }
    return os.str();
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string Mismatch(std::uint64_t seed, Digests got) {
    if (!energy_) got.energy = 0;
    const auto pinned = expect_.find(seed);
    if (pinned != expect_.end() && !(pinned->second == got)) {
      return "digests differ from the pinned reference (trace " +
             Hex(got.trace) + " vs " + Hex(pinned->second.trace) + ", report " +
             Hex(got.report) + " vs " + Hex(pinned->second.report) +
             ", energy " + Hex(got.energy) + " vs " +
             Hex(pinned->second.energy) + ")";
    }
    return Repeat(seen_, seed, got);
  }

  static std::string Repeat(std::map<std::uint64_t, Digests>& seen,
                            std::uint64_t seed, const Digests& got) {
    const auto [first, fresh] = seen.emplace(seed, got);
    if (!fresh && !(first->second == got)) {
      return "digests differ from the first pass at this seed";
    }
    return "";
  }

  struct Record {
    std::string kind;
    std::uint64_t seed;
    bool ok;
    Phases phases;
    Digests digests;
    double probe_s = 0.0;
    double peak_rss_mb = 0.0;
  };

  bool energy_;
  std::map<std::uint64_t, Digests> expect_;
  std::map<std::uint64_t, Digests> seen_;
  std::map<std::uint64_t, Digests> probe_seen_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<Record> records_;
  std::vector<std::string> errors_;
};

bool IsLayerOf(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

// One traced round's per-layer metrics: synth and cdn from the plain pass
// (the only one that times generation and the engine apart), trace and
// analysis from the workload's own pass, ckpt and energy from the crash
// pass, cluster from the trend probe.
std::map<std::string, double> RoundLayers(const Workload& w, const Pass& untraced,
                                          const Pass& own, const Pass& other,
                                          const Pass& trend) {
  const Pass& plain = w.crash ? other : own;
  const Pass& crash = w.crash ? own : other;
  std::map<std::string, double> m;
  for (const auto& [k, v] : plain.layers) {
    if (IsLayerOf(k, "synth.") || IsLayerOf(k, "cdn.")) m[k] = v;
  }
  for (const auto& [k, v] : own.layers) {
    if (IsLayerOf(k, "trace.") || IsLayerOf(k, "analysis.")) m[k] = v;
  }
  for (const auto& [k, v] : trend.layers) {
    if (IsLayerOf(k, "cluster.")) m[k] = v;
  }
  for (const auto& [k, v] : crash.layers) {
    if (IsLayerOf(k, "ckpt.") || IsLayerOf(k, "energy.")) m[k] = v;
  }
  m["ckpt.engine_overhead_s"] = crash.layers.at("engine_after_first_record_s") -
                                plain.layers.at("engine_after_first_record_s");
  m["bench.tracing_overhead_pct"] =
      (own.phases.wall_s - untraced.phases.wall_s) / untraced.phases.wall_s *
      100.0;
  return m;
}

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + Num(v);
  }
  return out + "}";
}

std::string PhasesJson(const Phases& p) {
  return MapJson({{"setup_s", p.setup_s},
                  {"simulate_s", p.simulate_s},
                  {"analyze_s", p.analyze_s},
                  {"wall_s", p.wall_s}});
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = FindWorkload(args.workload);
  atlas::util::SetLogLevel(atlas::util::LogLevel::kWarn);
  // One worker budget for every layer: the APIs get the count explicitly
  // and the process default (what layers fall back to) is pinned to it.
  atlas::util::SetDefaultThreads(kThreads);
  RunSettings settings;
  settings.root = args.root;
  settings.workdir = args.workdir;
  settings.scale = args.scale > 0.0 ? args.scale : w.scale;
  settings.threads = kThreads;

  std::ostringstream out;
  out << "{\"workload\": " << Quote(w.name) << ", \"mode\": "
      << Quote(args.mode) << ", \"seed\": " << args.seeds.front()
      << ", \"scale\": " << Num(settings.scale)
      << ", \"threads\": " << atlas::util::ResolveThreads(kThreads)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
      << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE);

  Ledger ledger(w, args.expect);
  // The trend probe scales with the workload (a --scale override shrinks it
  // in proportion).
  const Workload& trend_workload = FindWorkload("trend_report");
  RunSettings trend_settings = settings;
  trend_settings.scale = std::max(
      0.005, trend_workload.scale * settings.scale / w.scale);
  std::vector<std::string> rounds;
  if (args.mode == "pin") {
    for (const std::uint64_t seed : args.seeds) {
      Pass pass;
      ledger.Run("plain", seed, [&] { return RunPlain(w, settings, seed, nullptr); },
                 pass);
    }
  } else {
    const std::uint64_t seed = args.seeds.front();
    const bool traced = args.mode == "traced";
    const std::vector<std::uint64_t> pass_seeds =
        traced ? std::vector<std::uint64_t>{seed} : PassSeeds(seed);
    out << ", \"pass_seeds\": [";
    std::string fingerprints;
    for (std::size_t i = 0; i < pass_seeds.size(); ++i) {
      // A spec that does not load fails every pass below, each counted.
      std::string fingerprint = "unavailable";
      try {
        fingerprint = Hex(SpecFingerprint(w, settings, pass_seeds[i]));
      } catch (const std::exception&) {
      }
      out << (i ? ", " : "") << pass_seeds[i];
      fingerprints += (i ? ", " : "") + Quote(fingerprint);
    }
    out << "], \"spec_fingerprints\": [" << fingerprints << "]";
    out << ", \"gate_seed\": " << args.gate_seed;
    SpeedProbe probe;
    const double probe_resident_mb =
        static_cast<double>(probe.resident_bytes()) / (1024.0 * 1024.0);
    Pass gate;
    ledger.Run("gate", args.gate_seed,
               [&] { return RunMeasured(w, settings, args.gate_seed, nullptr); },
               gate);
    ProbeResult last_probe = probe.Run();
    std::vector<double> probe_times = {last_probe.seconds};

    const double start = WallNow();
    std::vector<double> took;
    std::ofstream spans;
    bool first_event = true;
    if (traced && !args.spans_out.empty()) {
      spans.open(args.spans_out);
      spans << "{\"traceEvents\": [\n";
    }
    for (int round = 0; round < 1000; ++round) {
      if (!took.empty() && WallNow() - start + Median(took) > args.seconds) {
        break;
      }
      const double t0 = WallNow();
      if (!traced) {
        // The pass's own peak: the probe's transient block and earlier
        // passes stay out of it, its resident buffers are taken off.
        ResetPeakRss();
        const std::uint64_t pass_seed = pass_seeds[round % pass_seeds.size()];
        Pass pass;
        ledger.Run("untraced", pass_seed, [&] {
          return RunMeasured(w, settings, pass_seed, nullptr);
        }, pass);
        const double peak_rss_mb = PeakRssMb() - probe_resident_mb;
        const ProbeResult after = probe.Run();
        ledger.Annotate((last_probe.seconds + after.seconds) / 2.0, peak_rss_mb);
        probe_times.push_back(after.seconds);
        last_probe = after;
      } else {
        Tracer own_tracer;
        Tracer other_tracer;
        Tracer trend_tracer;
        Pass untraced, own, other, trend;
        bool ok = ledger.Run("untraced", seed, [&] {
          return RunMeasured(w, settings, seed, nullptr);
        }, untraced);
        ok = ledger.Run("traced", seed, [&] {
          return RunMeasured(w, settings, seed, &own_tracer);
        }, own) && ok;
        ok = ledger.Run(w.crash ? "traced_plain" : "traced_crash", seed, [&] {
          return w.crash ? RunPlain(w, settings, seed, &other_tracer)
                         : RunCrash(w, settings, seed, &other_tracer);
        }, other) && ok;
        // Trend clustering has no workload of its own in BENCHMARK.json, so
        // every traced round also times it on the trend_report spec.
        ok = ledger.Run("trend_probe", seed, [&] {
          return RunPlain(trend_workload, trend_settings, seed, &trend_tracer);
        }, trend, true) && ok;
        if (ok) {
          rounds.push_back("{\"layers\": " +
                           MapJson(RoundLayers(w, untraced, own, other, trend)) +
                           ", \"untraced_phases\": " +
                           PhasesJson(untraced.phases) +
                           ", \"traced_phases\": " + PhasesJson(own.phases) +
                           ", \"span_phases\": " + PhasesJson(own.span_phases) +
                           "}");
        }
        if (spans.is_open()) {
          own_tracer.WriteTraceEvents(spans, 3 * round + 1, first_event);
          other_tracer.WriteTraceEvents(spans, 3 * round + 2, first_event);
          trend_tracer.WriteTraceEvents(spans, 3 * round + 3, first_event);
        }
      }
      took.push_back(WallNow() - t0);
    }
    if (spans.is_open()) spans << "\n]}\n";
    out << ", \"drift_probe_s\": " << Num(Median(probe_times))
        << ", \"drift_probe_checksum\": \"" << Hex(last_probe.checksum) << "\"";
  }

  out << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed()
      << ", \"errors\": [";
  for (std::size_t i = 0; i < ledger.errors().size(); ++i) {
    out << (i ? ", " : "") << Quote(ledger.errors()[i]);
  }
  out << "], \"passes\": [" << ledger.PassesJson() << "], \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    out << (i ? ", " : "") << rounds[i];
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "atlas_perfbench: " << e.what() << "\n";
    return 2;
  }
}
