#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/suite.h"
#include "cdn/engine.h"
#include "cdn/scenario_spec.h"
#include "ckpt/checkpoint.h"
#include "energy/model.h"
#include "energy/run.h"
#include "synth/workload.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/time.h"

namespace perfbench {
namespace {

using namespace atlas;

// Engine snapshot cadence of the crash pass, in epoch barriers.
constexpr std::uint64_t kEngineCheckpointEvery = 8;
// The crash pass checkpoints its analysis this many times per trace.
constexpr std::uint64_t kAnalysisCheckpoints = 8;
constexpr char kAnalysisSection[] = "perfbench.analysis";
constexpr std::uint32_t kAnalysisSectionVersion = 1;

cdn::ScenarioSpec LoadSpec(const Workload& w, const RunSettings& s,
                           std::uint64_t seed) {
  auto spec = cdn::ScenarioSpec::ParseFile(s.root + "/" + w.spec_file);
  spec.scale = s.scale;
  spec.seed = seed;
  spec.Validate();
  return spec;
}

// Incremental FNV-1a 64; the same function as util::Fnv1a64.
class Fnv {
 public:
  void Add(const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= static_cast<unsigned char>(data[i]);
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot reopen " + path);
  std::vector<char> buf(1 << 20);
  Fnv fnv;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    fnv.Add(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return fnv.value();
}

std::uint64_t DigestEnergy(const energy::EnergyReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto put = [&](const energy::EnergyBreakdown& e) {
    os << e.server_j << ' ' << e.network_j << ' ' << e.storage_j << ' '
       << e.electricity_usd << ' ' << e.transit_usd << '\n';
  };
  os << r.span_ms << ' ' << r.epochs << '\n';
  for (const auto& dc : r.dcs) {
    os << dc.dc << ' ' << dc.served_bytes << ' ' << dc.duty << '\n';
    put(dc.energy);
  }
  put(r.total);
  return util::Fnv1a64(os.str());
}

// Pass-through sink in front of the WriterSink: stamps the first record
// (the end of set-up) and times every Write, which is where the v2 encoder
// runs. With a tracer each Write also becomes a "trace.encode" span.
class StampSink final : public trace::RecordSink {
 public:
  StampSink(trace::RecordSink& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  void Write(std::span<const trace::LogRecord> records) override {
    const double start = WallNow();
    if (writes_ == 0) first_ = start;
    ++writes_;
    records_ += records.size();
    inner_->Write(records);
    const double end = WallNow();
    busy_ += end - start;
    if (tracer_) tracer_->Add("trace.encode", start, end);
  }

  // Time of the first record; throws if none arrived.
  double first() const {
    if (writes_ == 0) throw std::runtime_error("no record reached the sink");
    return first_;
  }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t records() const { return records_; }
  double busy() const { return busy_; }

 private:
  trace::RecordSink* inner_;
  Tracer* tracer_;
  double first_ = 0.0;
  double busy_ = 0.0;
  std::uint64_t writes_ = 0;
  std::uint64_t records_ = 0;
};

analysis::SuiteConfig SuiteFor(const Workload& w, const RunSettings& s) {
  analysis::SuiteConfig config;
  config.run_trend_clusters = w.trends;
  config.threads = s.threads;
  return config;
}

// `atlas-trace analyze --spec`'s registry: the spec's sites in order.
trace::PublisherRegistry RegistryFor(const cdn::ScenarioSpec& spec) {
  trace::PublisherRegistry registry;
  for (const auto& profile : spec.BuildProfiles()) {
    registry.Register(profile.name, profile.kind);
  }
  return registry;
}

// StreamScenario(spec, config, ...)'s call sequence, spelled out so each
// step gets its own span: profiles, one WorkloadGenerator per site seeded
// from the spec seed, Generate with the record-calibrated budget, then the
// sharded engine. Must reproduce StreamScenario's trace byte for byte.
void RunDecomposed(const cdn::ScenarioSpec& spec,
                   const cdn::SimulatorConfig& config, trace::RecordSink& sink,
                   int threads, Tracer& tracer, Pass& pass) {
  std::vector<synth::SiteProfile> profiles;
  {
    Scope span(&tracer, "spec.profiles");
    profiles = spec.BuildProfiles();
  }
  trace::PublisherRegistry registry;
  util::Rng seeder(spec.seed);
  std::vector<std::unique_ptr<synth::WorkloadGenerator>> generators;
  std::vector<std::uint32_t> ids;
  {
    Scope span(&tracer, "synth.build", true);
    for (const auto& profile : profiles) {
      ids.push_back(registry.Register(profile.name, profile.kind));
      generators.push_back(
          std::make_unique<synth::WorkloadGenerator>(profile, seeder.Next()));
    }
  }
  std::vector<std::vector<synth::RequestEvent>> events(generators.size());
  {
    Scope span(&tracer, "synth.generate", true);
    for (std::size_t i = 0; i < generators.size(); ++i) {
      const double inflation =
          generators[i]->EstimateRecordsPerRequest(config.chunk_bytes);
      const auto budget = static_cast<std::uint64_t>(std::max(
          1.0, static_cast<double>(profiles[i].total_requests) / inflation));
      events[i] = generators[i]->Generate(budget);
    }
  }
  std::vector<cdn::SiteJob> jobs;
  double total_events = 0.0;
  for (std::size_t i = 0; i < generators.size(); ++i) {
    jobs.push_back({generators[i].get(), &events[i], ids[i]});
    total_events += static_cast<double>(events[i].size());
  }
  pass.layers["synth.events"] = total_events;
  Scope span(&tracer, "cdn.run_sharded", true);
  cdn::RunSharded(jobs, config, sink, threads);
}

// Mid-trace stop of the crash pass's analysis.
struct AnalysisCrash {
  std::string path;
  std::uint64_t every_blocks = 1;
  std::uint64_t stop_after = 0;  // blocks fed before the stop (a save point)
};

// Feeds the trace into `stream`, skipping the first `skip` records (a
// resumed analysis), checkpointing every `crash->every_blocks` blocks.
// Returns false if it stopped at `crash->stop_after` blocks.
bool Feed(trace::TraceFileReader& reader, analysis::StreamingAnalysis& stream,
          std::uint64_t skip, const AnalysisCrash* crash, bool stop,
          Tracer* tracer, Pass& pass) {
  std::uint64_t blocks = 0;
  for (;;) {
    const trace::RecordBlock* block;
    {
      Scope span(tracer, "trace.decode");
      block = reader.NextBlock();
    }
    if (block == nullptr) break;
    pass.layers["trace.blocks"] += 1.0;
    std::size_t first_row = 0;
    if (skip > 0) {
      const auto drop =
          std::min<std::uint64_t>(skip, static_cast<std::uint64_t>(block->size()));
      first_row = static_cast<std::size_t>(drop);
      skip -= drop;
      if (first_row >= block->size()) continue;
    }
    {
      Scope span(tracer, "analysis.ingest");
      stream.AddBlock(*block, first_row);
    }
    ++blocks;
    if (crash != nullptr && blocks % crash->every_blocks == 0) {
      Scope span(tracer, "ckpt.analysis_save");
      ckpt::WriteCheckpointFile(crash->path, [&](ckpt::Writer& w) {
        w.BeginSection(kAnalysisSection, kAnalysisSectionVersion);
        stream.SaveState(w);
        w.EndSection();
      });
      if (stop && blocks >= crash->stop_after) return false;
    }
  }
  if (skip > 0) throw std::runtime_error("trace shorter than its checkpoint");
  return true;
}

// Trace -> rendered report. With `crash`, the analysis is stopped at a save
// point and resumed from that checkpoint on a freshly opened trace.
std::string Analyze(const Workload& w, const RunSettings& s,
                    const cdn::ScenarioSpec& spec, const std::string& path,
                    const AnalysisCrash* crash, Tracer* tracer, Pass& pass) {
  const analysis::SuiteConfig config = SuiteFor(w, s);
  trace::PublisherRegistry registry;
  std::unique_ptr<analysis::StreamingAnalysis> stream;
  {
    Scope span(tracer, "analysis.setup");
    registry = RegistryFor(spec);
    stream = std::make_unique<analysis::StreamingAnalysis>(registry, config);
  }
  std::unique_ptr<trace::TraceFileReader> reader;
  {
    Scope span(tracer, "trace.open");
    reader = std::make_unique<trace::TraceFileReader>(path);
  }
  const bool finished = Feed(*reader, *stream, 0, crash, true, tracer, pass);
  if (crash != nullptr) {
    if (finished) throw std::runtime_error("analysis stop never fired");
    // The stopped analysis is dropped whole, as a killed process's would be.
    stream.reset();
    reader.reset();
    std::uint64_t skip = 0;
    {
      Scope span(tracer, "ckpt.analysis_restore");
      auto snapshot = ckpt::ReadCheckpointFile(crash->path);
      stream = std::make_unique<analysis::StreamingAnalysis>(registry, config);
      snapshot.BeginSection(kAnalysisSection, kAnalysisSectionVersion);
      stream->RestoreState(snapshot);
      snapshot.EndSection();
      skip = stream->records_consumed();
    }
    {
      Scope span(tracer, "trace.open");
      reader = std::make_unique<trace::TraceFileReader>(path);
    }
    Feed(*reader, *stream, skip, crash, false, tracer, pass);
  }
  std::vector<analysis::SiteAnalysis> sites;
  {
    Scope span(tracer, "analysis.finalize", true);
    sites = stream->Finalize();
  }
  double objects = 0.0;
  double pairs = 0.0;
  for (const auto& site : sites) {
    for (const auto* t : {&site.video_trends, &site.image_trends}) {
      if (!t->has_value()) continue;
      const auto n = static_cast<double>((*t)->clustered_objects);
      objects += n;
      pairs += n * (n - 1.0) / 2.0;
    }
  }
  pass.layers["cluster.objects"] = objects;
  pass.layers["cluster.dtw_pairs"] = pairs;
  std::ostringstream report;
  {
    Scope span(tracer, "analysis.render");
    analysis::AnalysisSuite suite(std::move(sites));
    suite.Render(report);
  }
  return report.str();
}

// Time the top-level spans spend inside [from, to).
double SpanTimeIn(const Tracer& tracer, double from, double to) {
  double total = 0.0;
  for (const Span& sp : tracer.spans()) {
    if (sp.parent != -1) continue;
    const double a = std::max(sp.start, from);
    const double b = std::min(sp.end, to);
    if (b > a) total += b - a;
  }
  return total;
}

// Fills phases from the pass's stamps and, when traced, the same phases as
// the top-level spans account for them.
void SetPhases(Pass& pass, Tracer* tracer, double start, double cpu_start,
               double first_record, double simulated, double analyze_start,
               double end) {
  Phases& p = pass.phases;
  p.setup_s = first_record - start;
  p.simulate_s = simulated - first_record;
  p.analyze_s = end - analyze_start;
  p.wall_s = end - start;
  p.cpu_s = CpuNow() - cpu_start;
  if (tracer == nullptr) return;
  Phases& q = pass.span_phases;
  q.setup_s = SpanTimeIn(*tracer, start, first_record);
  q.simulate_s = SpanTimeIn(*tracer, first_record, simulated);
  q.analyze_s = SpanTimeIn(*tracer, analyze_start, end);
  q.wall_s = SpanTimeIn(*tracer, start, end);
  q.cpu_s = p.cpu_s;
}

// Per-layer metrics every traced pass derives the same way.
void CommonLayers(const Tracer& t, Pass& pass, const std::string& report,
                  const std::string& trace_path) {
  auto& m = pass.layers;
  m["trace.encode_s"] = t.TotalWall("trace.encode") + t.TotalWall("trace.finish");
  m["trace.decode_s"] = t.TotalWall("trace.decode") + t.TotalWall("trace.open");
  m["trace.bytes"] = static_cast<double>(std::filesystem::file_size(trace_path));
  m["analysis.ingest_s"] = t.TotalWall("analysis.ingest");
  const double finalize = t.TotalWall("analysis.finalize");
  m["analysis.finalize_s"] = finalize;
  m["analysis.finalize_cpu_over_wall"] =
      finalize > 0.0 ? t.TotalCpu("analysis.finalize") / finalize : 0.0;
  m["analysis.render_s"] = t.TotalWall("analysis.render");
  m["analysis.report_bytes"] = static_cast<double>(report.size());
}

void RemoveIfPresent(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_week", "scenarios/paper_study.toml", 0.25, false, false},
      {"trend_report", "scenarios/paper_study.toml", 0.02, true, false},
      {"crash_resume", "scenarios/dc_outage.toml", 0.25, false, true},
  };
  return kWorkloads;
}

const Workload& FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t SpecFingerprint(const Workload& w, const RunSettings& s,
                              std::uint64_t seed) {
  return LoadSpec(w, s, seed).Fingerprint();
}

Pass RunPlain(const Workload& w, const RunSettings& s, std::uint64_t seed,
              Tracer* tracer) {
  const std::string trace_path = s.workdir + "/plain.v2";
  Pass pass;
  const double start = WallNow();
  const double cpu_start = CpuNow();
  cdn::ScenarioSpec spec;
  cdn::SimulatorConfig config;
  {
    Scope span(tracer, "spec.parse");
    spec = LoadSpec(w, s, seed);
    config = spec.BuildConfig();
  }
  energy::EnergyAccumulator acc;
  cdn::CheckpointOptions opts;
  if (w.crash) opts = energy::AttachEnergy(acc, config, opts);

  double first_record = 0.0;
  double simulated = 0.0;
  {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + trace_path);
    trace::TraceWriter writer(out);
    trace::WriterSink writer_sink(writer);
    StampSink sink(writer_sink, tracer);
    if (tracer == nullptr) {
      cdn::StreamScenario(spec, config, sink, s.threads, opts);
    } else {
      RunDecomposed(spec, config, sink, s.threads, *tracer, pass);
    }
    {
      Scope span(tracer, "trace.finish");
      writer.Finish();
      out.close();
      if (!out) throw std::runtime_error("error writing " + trace_path);
    }
    simulated = WallNow();
    first_record = sink.first();
    if (tracer != nullptr) {
      const Span& run = *tracer->Find("cdn.run_sharded");
      pass.layers["cdn.first_record_s"] = first_record - run.start;
      pass.layers["cdn.records"] = static_cast<double>(sink.records());
      pass.layers["cdn.sink_writes"] = static_cast<double>(sink.writes());
      // Engine time past the first record, sink excluded: the baseline the
      // crash pass's checkpointing overhead is measured against.
      pass.layers["engine_after_first_record_s"] =
          run.end - first_record - sink.busy();
    }
  }
  if (w.crash) {
    Scope span(tracer, "energy.report");
    pass.digests.energy = DigestEnergy(acc.Report(energy::EnergyModel(spec.energy)));
  }
  const double analyze_start = WallNow();
  const std::string report =
      Analyze(w, s, spec, trace_path, nullptr, tracer, pass);
  const double end = WallNow();
  SetPhases(pass, tracer, start, cpu_start, first_record, simulated,
            analyze_start, end);

  pass.digests.trace = DigestFile(trace_path);
  pass.digests.report = util::Fnv1a64(report);
  if (tracer != nullptr) {
    const Tracer& t = *tracer;
    auto& m = pass.layers;
    const double generate = t.TotalWall("synth.generate");
    const double engine = t.TotalWall("cdn.run_sharded");
    m["synth.build_s"] = t.TotalWall("synth.build");
    m["synth.generate_s"] = generate;
    m["synth.generate_cpu_over_wall"] =
        generate > 0.0 ? t.TotalCpu("synth.generate") / generate : 0.0;
    m["cdn.engine_s"] = t.TotalSelf("cdn.run_sharded");
    m["cdn.engine_cpu_over_wall"] =
        engine > 0.0 ? t.TotalCpu("cdn.run_sharded") / engine : 0.0;
    CommonLayers(t, pass, report, trace_path);
  }
  RemoveIfPresent(trace_path);
  return pass;
}

Pass RunCrash(const Workload& w, const RunSettings& s, std::uint64_t seed,
              Tracer* tracer) {
  const std::string trace_path = s.workdir + "/crash.v2";
  const std::string sim_ckpt = s.workdir + "/crash.sim.ckpt";
  AnalysisCrash analysis_crash;
  analysis_crash.path = s.workdir + "/crash.analysis.ckpt";
  // A snapshot left by an earlier pass must never be the one resumed.
  RemoveIfPresent(sim_ckpt);
  RemoveIfPresent(analysis_crash.path);

  Pass pass;
  const double start = WallNow();
  const double cpu_start = CpuNow();
  cdn::ScenarioSpec spec;
  cdn::SimulatorConfig config;
  {
    Scope span(tracer, "spec.parse");
    spec = LoadSpec(w, s, seed);
    config = spec.BuildConfig();
  }
  // Stop at the first snapshot at or past the middle of the week.
  const auto total_epochs = static_cast<std::uint64_t>(
      (util::kMillisPerWeek + config.epoch_ms - 1) / config.epoch_ms);
  const std::uint64_t stop_at =
      (total_epochs / 2 + kEngineCheckpointEvery - 1) /
      kEngineCheckpointEvery * kEngineCheckpointEvery;
  double snapshots = 0.0;
  double snapshot_bytes = 0.0;
  const auto count_snapshot = [&] {
    snapshots += 1.0;
    snapshot_bytes += static_cast<double>(std::filesystem::file_size(sim_ckpt));
  };

  // First run: stopped through after_save, its tail torn like a killed
  // process's (the writer is dropped without Finish).
  bool stopped = false;
  double first_record = 0.0;
  double engine_after_first = 0.0;
  {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + trace_path);
    trace::TraceWriter writer(out);
    trace::WriterSink writer_sink(writer);
    StampSink sink(writer_sink, tracer);
    energy::EnergyAccumulator acc;
    cdn::CheckpointOptions opts;
    opts.every_epochs = kEngineCheckpointEvery;
    opts.path = sim_ckpt;
    opts.save_extra = [&](ckpt::Writer& wr) { writer.SaveState(wr); };
    opts.after_save = [&](std::uint64_t barriers) {
      count_snapshot();
      stopped = barriers >= stop_at;
      return !stopped;
    };
    opts = energy::AttachEnergy(acc, config, opts);
    double end = 0.0;
    {
      Scope span(tracer, "cdn.stream_scenario", true);
      cdn::StreamScenario(spec, config, sink, s.threads, opts);
      end = WallNow();
    }
    first_record = sink.first();
    engine_after_first = end - first_record - sink.busy();
  }
  if (!stopped) throw std::runtime_error("simulation stop never fired");

  // Second run: a fresh start from the snapshot, as `atlas-trace simulate
  // --resume` does it.
  double simulated = 0.0;
  double energy_epochs = 0.0;
  std::uint64_t records = 0;
  {
    cdn::ScenarioSpec spec2;
    cdn::SimulatorConfig config2;
    {
      Scope span(tracer, "spec.parse");
      spec2 = LoadSpec(w, s, seed);
      config2 = spec2.BuildConfig();
    }
    std::optional<ckpt::Reader> snapshot;
    {
      Scope span(tracer, "ckpt.read");
      snapshot.emplace(ckpt::ReadCheckpointFile(sim_ckpt));
    }
    std::optional<trace::ResumedTraceFile> resumed;
    {
      Scope span(tracer, "trace.recover");
      resumed.emplace(trace_path, *snapshot);
    }
    trace::TraceWriter& writer = resumed->writer();
    trace::WriterSink writer_sink(writer);
    StampSink sink(writer_sink, tracer);
    energy::EnergyAccumulator acc;
    cdn::CheckpointOptions opts;
    opts.every_epochs = kEngineCheckpointEvery;
    opts.path = sim_ckpt;
    opts.resume = &*snapshot;
    opts.save_extra = [&](ckpt::Writer& wr) { writer.SaveState(wr); };
    opts.after_save = [&](std::uint64_t) {
      count_snapshot();
      return true;
    };
    opts = energy::AttachEnergy(acc, config2, opts);
    const double resume_start = WallNow();
    double end = 0.0;
    {
      Scope span(tracer, "cdn.stream_scenario_resume", true);
      cdn::StreamScenario(spec2, config2, sink, s.threads, opts);
      end = WallNow();
    }
    engine_after_first += end - sink.first() - sink.busy();
    pass.layers["ckpt.resume_first_record_s"] = sink.first() - resume_start;
    {
      Scope span(tracer, "trace.finish");
      writer.Finish();
      records = writer.written();
      resumed.reset();  // closes the file
    }
    simulated = WallNow();
    // The crash pass always carries energy accounting, so every workload's
    // traced run times the energy layer; only crash workloads gate on it.
    Scope span(tracer, "energy.report");
    const auto energy_report = acc.Report(energy::EnergyModel(spec2.energy));
    if (w.crash) pass.digests.energy = DigestEnergy(energy_report);
    energy_epochs = static_cast<double>(acc.epochs());
  }

  // Analysis cadence from the record count, so the stop lands mid-trace at
  // any scale: ~kAnalysisCheckpoints saves, stop at the first past halfway.
  const std::uint64_t total_blocks =
      (records + trace::kDefaultBlockRecords - 1) / trace::kDefaultBlockRecords;
  if (total_blocks < 2) {
    throw std::runtime_error("trace too short to stop its analysis midway");
  }
  analysis_crash.every_blocks =
      std::max<std::uint64_t>(1, total_blocks / kAnalysisCheckpoints);
  analysis_crash.stop_after =
      std::max<std::uint64_t>(1, total_blocks / 2 / analysis_crash.every_blocks) *
      analysis_crash.every_blocks;

  const double analyze_start = WallNow();
  const std::string report =
      Analyze(w, s, spec, trace_path, &analysis_crash, tracer, pass);
  const double end = WallNow();
  SetPhases(pass, tracer, start, cpu_start, first_record, simulated,
            analyze_start, end);

  pass.digests.trace = DigestFile(trace_path);
  pass.digests.report = util::Fnv1a64(report);
  if (tracer != nullptr) {
    const Tracer& t = *tracer;
    auto& m = pass.layers;
    m["engine_after_first_record_s"] = engine_after_first;
    m["ckpt.read_s"] = t.TotalWall("ckpt.read");
    m["ckpt.analysis_save_s"] = t.TotalWall("ckpt.analysis_save");
    m["ckpt.analysis_restore_s"] = t.TotalWall("ckpt.analysis_restore");
    m["ckpt.snapshots"] = snapshots;
    m["ckpt.snapshot_bytes"] = snapshot_bytes;
    m["energy.report_s"] = t.TotalWall("energy.report");
    m["energy.epochs"] = energy_epochs;
    CommonLayers(t, pass, report, trace_path);
  }
  RemoveIfPresent(trace_path);
  RemoveIfPresent(sim_ckpt);
  RemoveIfPresent(analysis_crash.path);
  return pass;
}

}  // namespace perfbench
