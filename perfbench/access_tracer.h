// Host-time tracing of the tier layer's per-access path, from outside it.
//
// AccessTracer is a forwarding decorator over a TieredMemoryManager, built
// like TraceRecorder (src/tier/trace.h): it overrides AccessPage and
// forwards every call to the inner manager's public Access, timing each
// forward with the host's steady clock. Instead of keeping one span per
// access (tens of millions), it aggregates them per simulated thread: a
// count, a total, and a bounded log-scale histogram of per-call host ns.
//
// The decorator registers with the machine as a second manager, so it
// mirrors the inner manager's epoch eligibility, tier mask, and sampling
// flag: the epoch gate then grants exactly the epochs it grants without the
// decorator. Inside an epoch, each simulated thread runs on one host worker
// at a time, so per-stream slots need no locks.

#ifndef HEMEM_PERFBENCH_ACCESS_TRACER_H_
#define HEMEM_PERFBENCH_ACCESS_TRACER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/device.h"
#include "tier/manager.h"

namespace hemem::perfbench {

// Per-call host-time histogram: four sub-buckets per power of two, so a
// percentile is known to within 25% of its value, in 2 KiB.
class CallHistogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kBuckets = 64 << kSubBits;

  static int BucketOf(uint64_t ns) {
    if (ns < (1u << kSubBits)) {
      return static_cast<int>(ns);
    }
    const int log2 = std::bit_width(ns) - 1;
    const auto sub = static_cast<int>((ns >> (log2 - kSubBits)) & ((1u << kSubBits) - 1));
    return (log2 << kSubBits) + sub;
  }
  // Smallest value that lands in `bucket`.
  static uint64_t LowerBound(int bucket) {
    const int log2 = bucket >> kSubBits;
    if (log2 < kSubBits) {
      return static_cast<uint64_t>(bucket);
    }
    const uint64_t sub = static_cast<uint64_t>(bucket) & ((1u << kSubBits) - 1);
    return (uint64_t{1} << log2) | (sub << (log2 - kSubBits));
  }

  void Record(uint64_t ns) { counts_[static_cast<size_t>(BucketOf(ns))]++; }
  void Merge(const CallHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }
  uint64_t count(int bucket) const { return counts_[static_cast<size_t>(bucket)]; }
  uint64_t total() const {
    uint64_t n = 0;
    for (const uint64_t c : counts_) {
      n += c;
    }
    return n;
  }
  // Lower bound of the bucket holding quantile q (0 when empty).
  uint64_t Percentile(double q) const {
    const uint64_t n = total();
    if (n == 0) {
      return 0;
    }
    const auto rank = static_cast<uint64_t>(q * static_cast<double>(n - 1));
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[static_cast<size_t>(b)];
      if (seen > rank) {
        return LowerBound(b);
      }
    }
    return LowerBound(kBuckets - 1);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
};

// Aggregated span of every forwarded access.
struct AccessSpans {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  CallHistogram histogram;
};

class AccessTracer : public TieredMemoryManager {
 public:
  explicit AccessTracer(TieredMemoryManager& inner)
      : TieredMemoryManager(inner.machine()),
        inner_(inner),
        slots_(MemoryDevice::kStreamSlots + 1) {
    parallel_quantum_safe_ = inner.parallel_quantum_safe();
    parallel_tier_mask_ = inner.parallel_tier_mask();
    epoch_sampling_ = inner.epoch_sampling();
  }

  const char* name() const override { return inner_.name(); }
  uint64_t Mmap(uint64_t bytes, AllocOptions opts = {}) override {
    return inner_.Mmap(bytes, std::move(opts));
  }
  void Munmap(uint64_t va) override { inner_.Munmap(va); }
  void Start() override { inner_.Start(); }
  bool EpochEligible(SimTime frontier) override { return inner_.EpochEligible(frontier); }

  // Sum of every stream's spans. Call after the run.
  AccessSpans Collect() const {
    AccessSpans sum;
    for (const Slot& slot : slots_) {
      sum.count += slot.spans.count;
      sum.total_ns += slot.spans.total_ns;
      sum.histogram.Merge(slot.spans.histogram);
    }
    return sum;
  }

 protected:
  void AccessPage(SimThread& thread, uint64_t va, uint32_t size, AccessKind kind) override {
    const auto start = std::chrono::steady_clock::now();
    inner_.Access(thread, va, size, kind);
    const auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    // Streams past the slot table share the last slot; they never run
    // inside epochs, whose gate caps stream ids below kStreamSlots.
    const size_t last = slots_.size() - 1;
    AccessSpans& spans = slots_[std::min<size_t>(thread.stream_id(), last)].spans;
    spans.count++;
    spans.total_ns += ns;
    spans.histogram.Record(ns);
  }

 private:
  // Cache-line aligned: epoch workers update neighbouring slots concurrently.
  struct alignas(64) Slot {
    AccessSpans spans;
  };

  TieredMemoryManager& inner_;
  std::vector<Slot> slots_;
};

}  // namespace hemem::perfbench

#endif  // HEMEM_PERFBENCH_ACCESS_TRACER_H_
