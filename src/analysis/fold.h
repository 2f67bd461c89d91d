// The one-shot Compute* functions' shared driver: an in-memory trace is
// cut into BufferBlockSource blocks and folded through the accumulator's
// AddBatch — the same fold the streaming suite runs, so a one-shot result
// and a streamed one cannot drift apart.
#pragma once

#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::analysis {

// Feeds every record of `trace` to `acc`, in buffer order.
template <typename Accumulator>
void FoldTrace(const trace::TraceBuffer& trace, Accumulator& acc) {
  trace::BufferBlockSource source(trace);
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    acc.AddBatch(*block, nullptr, block->size());
  }
}

// As FoldTrace, for accumulators that require time-sorted input: an
// unsorted buffer is folded through a SortByTime() copy (stable, so
// equal-time records keep their buffer order).
template <typename Accumulator>
void FoldTraceByTime(const trace::TraceBuffer& trace, Accumulator& acc) {
  if (trace.IsSortedByTime()) {
    FoldTrace(trace, acc);
    return;
  }
  trace::TraceBuffer sorted = trace;
  sorted.SortByTime();
  FoldTrace(sorted, acc);
}

}  // namespace atlas::analysis
