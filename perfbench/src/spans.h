// Clocks and the in-memory span recorder behind the benchmark's traced run.
//
// A span is (name, start, end, parent); spans are recorded around calls into
// the library's public API from the benchmark's own code, kept in memory,
// and written out when the run ends. A span's self time is its duration
// minus the part of it covered by its children.
#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, in seconds.
double WallNow();
// CPU time of the whole process (user + sys, all threads), in seconds.
double CpuNow();
// Process peak resident set (VmHWM), in MiB.
double PeakRssMb();
// Restarts VmHWM from the current resident set (Linux 4.0+). Where the
// kernel refuses, VmHWM stays the peak since process start.
void ResetPeakRss();

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  // Process CPU seconds at start/end; only taken for spans opened with
  // `with_cpu` (a getrusage call each side), else both 0.
  bool with_cpu = false;
  double cpu_start = 0.0;
  double cpu_end = 0.0;

  double wall() const { return end - start; }
  double cpu() const { return cpu_end - cpu_start; }
};

// Spans nest by a stack owned by the thread driving the run. Add() records an
// already-timed span under whatever span is open, and may be called from the
// engine's coordinating thread while the driving thread is blocked inside
// the call that spawned it.
class Tracer {
 public:
  int Begin(const std::string& name, bool with_cpu = false);
  void End(int id);
  void Add(const std::string& name, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the union of the children's intervals.
  double SelfTime(int id) const;
  // Sums over every span with this name.
  double TotalWall(const std::string& name) const;
  double TotalCpu(const std::string& name) const;
  double TotalSelf(const std::string& name) const;
  // First span with this name, or nullptr.
  const Span* Find(const std::string& name) const;

  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one
  // complete ("X") event per span, self time and parent in its args.
  // `pid` separates rounds when several tracers go to one file.
  void WriteTraceEvents(std::ostream& out, int pid, bool& first) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; a no-op when
// the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, bool with_cpu = false)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, with_cpu) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
