// Host-speed calibration: times a fixed kernel and prints the samples as
// one JSON line.
//
//   perfbench_calibrate [samples]
//
// On a shared host, neighbours slow every run by up to ~50% for minutes at a
// time, far more than the changes the benchmark must resolve. run.py times
// this kernel right before each measured run and scales the run's host
// times by (reference time / kernel time), which cancels most of that drift.
// The kernel is random read-modify-writes over a 16 MiB table plus integer
// hashing, a stand-in for the simulator's mix of scattered loads and
// arithmetic. It shares no code with the simulator, so no change to src/ can
// move it; do not change it either, or normalized times stop being
// comparable across commits.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

constexpr uint64_t kTableWords = uint64_t{1} << 21;  // 16 MiB
constexpr int kIterations = 5'000'000;

double KernelSeconds(std::vector<uint64_t>& table, uint64_t* sink) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& word = table[x & (kTableWords - 1)];
    word = word * 0x100000001b3ull + (x >> 32);
    acc += ((word >> 17) & 1) != 0 ? word : ~word;
  }
  const auto end = std::chrono::steady_clock::now();
  *sink += acc;
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = argc > 1 ? std::atoi(argv[1]) : 3;
  std::vector<uint64_t> table(kTableWords, 1);
  uint64_t sink = 0;
  std::printf("{\"calibration_s\":[");
  for (int i = 0; i < samples; ++i) {
    std::printf("%s%.9f", i == 0 ? "" : ",", KernelSeconds(table, &sink));
  }
  // The sink keeps the kernel's result live, so the loop cannot be elided.
  std::printf("],\"sink\":%llu}\n", static_cast<unsigned long long>(sink & 1));
  return 0;
}
