// The benchmark's workloads and the two ways one pass runs through the
// library's public API:
//
//   plain  spec -> StreamScenario -> WriterSink (v2 trace) -> TraceFileReader
//          -> StreamingAnalysis::AddBlock / Finalize -> AnalysisSuite::Render
//   crash  the same, but the simulation snapshots every 8 epochs, is stopped
//          through after_save at a fixed mid-week barrier and resumed from
//          that snapshot; the analysis is checkpointed, stopped mid-trace and
//          resumed the same way. The output must equal the plain pass's.
//
// Each pass is timed in phases (setup, simulate, analyze). With a Tracer
// attached it also records spans around each public call; the traced plain
// pass re-issues StreamScenario's call sequence (WorkloadGenerator, Generate,
// RunSharded) so generation and the engine are timed apart.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string spec_file;  // relative to the checkout root
  double scale = 0.0;
  bool trends = false;  // trend clustering (DTW + linkage) in Finalize
  // The measured pass is the crash pass, and energy accounting rides every
  // pass (the crash pass always carries it).
  bool crash = false;
};

const std::vector<Workload>& Workloads();
// Throws std::invalid_argument for an unknown name.
const Workload& FindWorkload(const std::string& name);

// FNV-1a 64 of the v2 trace file, the rendered report, and (crash
// workloads only, else 0) the energy report.
struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t report = 0;
  std::uint64_t energy = 0;
  bool operator==(const Digests&) const = default;
};

struct Phases {
  double setup_s = 0.0;     // start until the first record reaches the sink
  double simulate_s = 0.0;  // first record until the writer's Finish
  double analyze_s = 0.0;   // trace open until the rendered report
  double wall_s = 0.0;      // spec until report
  double cpu_s = 0.0;       // process user + sys over the pass
};

struct Pass {
  Phases phases;
  Digests digests;
  // Traced passes only. `layers` holds the per-layer metrics by name;
  // `span_phases` re-adds each phase from the top-level spans that fall in
  // it, for comparison with an untraced pass's phases.
  std::map<std::string, double> layers;
  Phases span_phases;
};

struct RunSettings {
  std::string root;     // checkout root; spec files resolve against it
  std::string workdir;  // traces and snapshots are written here
  double scale = 0.0;
  int threads = 0;
};

// The spec the pass runs: the workload's file with scale and seed
// overridden, exactly as `atlas-trace simulate --spec --scale --seed` does.
std::uint64_t SpecFingerprint(const Workload& w, const RunSettings& s,
                              std::uint64_t seed);

Pass RunPlain(const Workload& w, const RunSettings& s, std::uint64_t seed,
              Tracer* tracer);
Pass RunCrash(const Workload& w, const RunSettings& s, std::uint64_t seed,
              Tracer* tracer);
// The workload's own measured pass.
inline Pass RunMeasured(const Workload& w, const RunSettings& s,
                        std::uint64_t seed, Tracer* tracer) {
  return w.crash ? RunCrash(w, s, seed, tracer)
                 : RunPlain(w, s, seed, tracer);
}

}  // namespace perfbench
