// Shared hand-built trace fixtures for the analysis tests.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "trace/trace_buffer.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas::analysis::testing {

struct RecordSpec {
  std::int64_t t = 0;
  std::uint64_t url = 1;
  std::uint64_t user = 1;
  trace::FileType type = trace::FileType::kJpg;
  std::uint64_t size = 1000;
  std::uint64_t bytes = 1000;
  std::uint16_t code = trace::kHttpOk;
  trace::CacheStatus cache = trace::CacheStatus::kHit;
  std::int8_t tz = 0;
  std::uint16_t ua = 0;
  std::uint32_t pub = 0;
};

inline trace::LogRecord MakeRecord(const RecordSpec& spec) {
  trace::LogRecord r;
  r.timestamp_ms = spec.t;
  r.url_hash = spec.url;
  r.user_id = spec.user;
  r.file_type = spec.type;
  r.object_size = spec.size;
  r.response_bytes = spec.bytes;
  r.response_code = spec.code;
  r.cache_status = spec.cache;
  r.tz_offset_quarter_hours = spec.tz;
  r.user_agent_id = spec.ua;
  r.publisher_id = spec.pub;
  return r;
}

// A small time-sorted trace: 8 users requesting 20 objects at random
// minutes across a week. Minute granularity makes equal timestamps common,
// so stable ordering of ties is exercised too.
inline trace::TraceBuffer SortedMultiUserTrace(std::size_t n = 600) {
  util::Rng rng(23);
  trace::TraceBuffer buf;
  for (std::size_t i = 0; i < n; ++i) {
    const auto minute = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(util::kMillisPerWeek /
                                                   util::kMillisPerMinute)));
    buf.Add(MakeRecord({.t = minute * util::kMillisPerMinute,
                        .url = 1 + rng.NextBounded(20),
                        .user = 1 + rng.NextBounded(8)}));
  }
  buf.SortByTime();
  return buf;
}

// The records of `sorted` in a deterministic shuffled order.
inline trace::TraceBuffer Shuffled(const trace::TraceBuffer& sorted) {
  std::vector<trace::LogRecord> records = sorted.records();
  util::Rng rng(29);
  rng.Shuffle(records);
  trace::TraceBuffer buf;
  for (const auto& r : records) buf.Add(r);
  return buf;
}

}  // namespace atlas::analysis::testing
