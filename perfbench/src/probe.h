// Host speed probe: a fixed single-threaded kernel owned by the benchmark,
// independent of the library. It runs before the first timed pass and after
// every timed pass, so each pass is bracketed by two probes. The shared host
// this benchmark was built on ran identical work up to twice as slowly from
// one minute to the next; the probe slows with it. run.py divides each
// pass's times by the mean of its two probes (see README.md, "Host speed"),
// and the manifest keeps the probe's median time, so a reader can also tell
// a slower host from a slower program by eye.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct ProbeResult {
  double seconds = 0.0;
  // Folded result of the kernel, printed so the work cannot be optimized
  // away and so two hosts can be checked to have run the same kernel.
  std::uint64_t checksum = 0;
};

// Five kernels, mixing the memory latency, pointer-heavy hashing, branchy
// compute, allocation and page faults the pipeline itself is made of:
// dependent loads around a random cycle (built once), integer mixing, a
// node-based hash map (insert + look up), a sort, and a streaming sum over
// freshly mapped memory. Of the variants tried, this mix tracked the
// workloads' pass times best; its hash map and sort buffer come from the
// process heap like the library's own.
class SpeedProbe {
 public:
  SpeedProbe();
  ProbeResult Run();
  // Bytes the probe keeps resident between runs (the cycle): a constant
  // share of every pass's peak RSS, taken out of peak_rss_mb.
  std::size_t resident_bytes() const;

 private:
  std::vector<std::uint32_t> cycle_;
};

}  // namespace perfbench
