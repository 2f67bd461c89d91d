// Streaming vs. in-memory trace pipeline: throughput and peak memory.
//
// Generates a study trace, writes it as a v2 block file, then runs the full
// AnalysisSuite twice — once through TraceFileReader (bounded memory), once
// through a materialized TraceBuffer — and a raw v2 scan for the format's
// ceiling. Records/sec and peak RSS per phase land in BENCH_stream.json
// (override the path with ATLAS_BENCH_STREAM_JSON; set it empty to skip).
// Peak RSS is reset between phases via /proc/self/clear_refs where the
// kernel allows it; the JSON notes when it does not.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>

#include "analysis/suite.h"
#include "bench_common.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/mem.h"

namespace {

using namespace atlas;

struct PhaseSample {
  double records_per_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
};

// Runs fn() once with the peak-RSS watermark freshly reset; `records` sets
// the rate denominator.
PhaseSample MeasurePhase(std::uint64_t records, const std::function<void()>& fn,
                         bool& rss_reset_ok) {
  rss_reset_ok = util::ResetPeakRss() && rss_reset_ok;
  const auto start = std::chrono::steady_clock::now();
  fn();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PhaseSample s;
  s.records_per_s =
      seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  s.peak_rss_bytes = util::PeakRssBytes();
  return s;
}

void AppendPhase(std::ostream& out, const char* name, const PhaseSample& s,
                 bool last = false) {
  out << "    \"" << name << "\": {\"records_per_s\": "
      << static_cast<std::uint64_t>(s.records_per_s)
      << ", \"peak_rss_bytes\": " << s.peak_rss_bytes << "}"
      << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchEnv env;
  env.flags.DefineInt("block-records",
                      static_cast<std::int64_t>(trace::kDefaultBlockRecords),
                      "records per v2 block");
  env.flags.DefineBool("trend", false,
                       "run DTW trend clustering inside the suite (dominates "
                       "runtime; off to measure the record pipeline)");
  if (!bench::SetUpStudy(env, argc, argv,
                         "Streaming vs in-memory pipeline throughput")) {
    return 0;
  }
  const auto block_records =
      static_cast<std::size_t>(env.flags.GetInt("block-records"));

  analysis::SuiteConfig suite_config;
  suite_config.run_trend_clusters = env.flags.GetBool("trend");
  suite_config.threads = static_cast<int>(env.flags.GetInt("threads"));

  const std::string v2_path = "stream_bench_trace.v2.bin";
  std::uint64_t records = 0;
  trace::PublisherRegistry registry;
  {
    registry = env.scenario->registry();
    std::ofstream stream(v2_path, std::ios::binary);
    trace::TraceWriter writer(stream, block_records);
    trace::WriterSink sink(writer);
    env.scenario->StreamMerged(sink);
    writer.Finish();
    records = writer.written();
    // The generation scenario dies here so the streaming phase's peak RSS
    // reflects the pipeline, not the generator (no merged copy was built).
    env.scenario.reset();
  }

  bool rss_reset_ok = true;

  // Raw v2 scan: decode + CRC ceiling, no analysis.
  const PhaseSample scan = MeasurePhase(
      records,
      [&] {
        trace::TraceFileReader source(v2_path, block_records);
        std::uint64_t n = 0;
        for (const auto* block = source.NextBlock(); block != nullptr;
             block = source.NextBlock()) {
          n += block->size();
        }
        if (n != records) std::abort();  // corrupt bench artifact
      },
      rss_reset_ok);

  // Full suite, streaming SoA blocks from disk.
  const PhaseSample streamed_batch = MeasurePhase(
      records,
      [&] {
        trace::TraceFileReader source(v2_path, block_records);
        analysis::AnalysisSuite suite(source, registry, suite_config);
        if (suite.sites().empty()) std::abort();
      },
      rss_reset_ok);

  // Full suite over a materialized buffer (the pre-streaming architecture),
  // file read included so both phases cover disk-to-report.
  const PhaseSample in_memory = MeasurePhase(
      records,
      [&] {
        const auto buffer = trace::ReadAnyBinaryFile(v2_path);
        analysis::AnalysisSuite suite(buffer, registry, suite_config);
        if (suite.sites().empty()) std::abort();
      },
      rss_reset_ok);

  std::remove(v2_path.c_str());

  std::cout << "records: " << records << "\n"
            << "scan_v2:         " << static_cast<std::uint64_t>(scan.records_per_s)
            << " rec/s, peak RSS " << scan.peak_rss_bytes / 1024 / 1024 << " MB\n"
            << "suite_stream_batch: "
            << static_cast<std::uint64_t>(streamed_batch.records_per_s)
            << " rec/s, peak RSS " << streamed_batch.peak_rss_bytes / 1024 / 1024
            << " MB\n"
            << "suite_in_memory: "
            << static_cast<std::uint64_t>(in_memory.records_per_s)
            << " rec/s, peak RSS " << in_memory.peak_rss_bytes / 1024 / 1024
            << " MB\n";
  if (!rss_reset_ok) {
    std::cout << "note: peak-RSS reset unavailable; RSS columns are "
                 "process-lifetime watermarks\n";
  }

  std::string json_path = "BENCH_stream.json";
  if (const char* override_path = std::getenv("ATLAS_BENCH_STREAM_JSON")) {
    json_path = override_path;
  }
  if (json_path.empty()) return 0;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"stream\",\n  "
      << bench::BenchMetaJson(bench::MetaFromFlags(env.flags, "paper_study"))
      << ",\n  \"records\": " << records
      << ",\n  \"block_records\": " << block_records
      << ",\n  \"rss_reset_supported\": " << (rss_reset_ok ? "true" : "false")
      << ",\n  \"results\": {\n";
  AppendPhase(out, "scan_v2", scan);
  AppendPhase(out, "suite_stream_batch", streamed_batch);
  AppendPhase(out, "suite_in_memory", in_memory, /*last=*/true);
  out << "  }\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
