#include "probe.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "spans.h"

namespace perfbench {
namespace {

// 4M slots of u32 (16 MiB) in one random cycle, chased for 1M loads.
constexpr std::size_t kCycleSlots = std::size_t{1} << 22;
constexpr std::size_t kChase = std::size_t{1} << 20;
constexpr std::size_t kMix = std::size_t{1} << 23;
// 256K inserts into a node-based hash map, then 1M lookups.
constexpr std::size_t kInserts = std::size_t{1} << 18;
constexpr std::size_t kLookups = std::size_t{1} << 20;
// 1M u64 (8 MiB) filled and sorted.
constexpr std::size_t kSortItems = std::size_t{1} << 20;
// A fresh 64 MiB block each probe: page faults, then two streaming sums.
constexpr std::size_t kStreamItems = std::size_t{1} << 23;
constexpr int kStreamSweeps = 2;

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe()
    : cycle_(kCycleSlots) {
  for (std::size_t i = 0; i < kCycleSlots; ++i) {
    cycle_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t rng = 20160627;
  for (std::size_t i = kCycleSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(cycle_[i], cycle_[SplitMix(rng) % i]);
  }
}

std::size_t SpeedProbe::resident_bytes() const {
  return cycle_.size() * sizeof(cycle_[0]);
}

ProbeResult SpeedProbe::Run() {
  const double start = WallNow();
  std::uint64_t fold = 0;

  std::uint32_t at = 0;
  for (std::size_t step = 0; step < kChase; ++step) {
    at = cycle_[at];
    fold += at;
  }

  std::uint64_t state = fold;
  for (std::size_t i = 0; i < kMix; ++i) fold ^= SplitMix(state);

  {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t keys = 7;
    for (std::size_t i = 0; i < kInserts; ++i) {
      map[SplitMix(keys) & 0xffffff] += i;
    }
    keys = 7;
    for (std::size_t i = 0; i < kLookups; ++i) {
      const auto it = map.find(SplitMix(keys) & 0xffffff);
      if (it != map.end()) fold += it->second;
    }
  }

  {
    std::vector<std::uint64_t> items(kSortItems);
    std::uint64_t values = 9;
    for (auto& v : items) v = SplitMix(values);
    std::sort(items.begin(), items.end());
    fold += items[kSortItems / 2];
  }

  {
    const std::vector<std::uint64_t> block(kStreamItems, 1);
    for (int sweep = 0; sweep < kStreamSweeps; ++sweep) {
      fold += std::accumulate(block.begin(), block.end(), std::uint64_t{0});
    }
  }

  ProbeResult out;
  out.seconds = WallNow() - start;
  out.checksum = fold;
  return out;
}

}  // namespace perfbench
