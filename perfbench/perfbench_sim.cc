// One run of one benchmark workload, printed as a single JSON line.
//
//   perfbench_sim --workload <name> --seed <n> [--mode plain|traced|verify]
//                 [--setups <k>] [--end-ms <ms>] [--spans-out <path>]
//
// Workloads (all HeMem, default policy, the 1/256-scale GupsMachine()):
//   gups-hotset     StandardHotGups(), 300 ms warm-up + 20 ms window
//   gups-hotset-w2  the same on two host workers (sharded epochs); run.py
//                   runs it once in gups-hotset's traced invocation
//   thrash-nomad    bench/thrash_migration's churn config, nomad migration,
//                   cut after two hot-set rotations (250 ms)
//   kvs-700         Table 3's 700 GB FlexKVS point, closed loop, 2.4 M
//                   measured requests
//
// Modes: `plain` is the measured run. `traced` puts the AccessTracer
// decorator between the app and the manager and records spans. `verify`
// turns on GupsConfig::verify (GUPS workloads only) and checks the data.
// `--setups k` builds and tears down k extra instances after the measured
// run (and after its peak RSS is read), so the caller gets k + 1 set-up
// times. `--end-ms` shortens a GUPS workload's virtual run (used by the
// data-integrity pass).
//
// The output carries host times, peak RSS, the virtual-time fingerprint
// (end time, ManagerStats, both DeviceStats), raw per-layer counters, model
// results, and the outcome of every output check. run.py turns these into
// the benchmark's metrics.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "access_tracer.h"
#include "apps/flexkvs.h"
#include "apps/gups.h"
#include "bench_common.h"
#include "gups_bench.h"

using namespace hemem;
using namespace hemem::bench;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point origin, Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// This process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
// which Linux carries across execve, it excludes the parent that forked us.
uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64, &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  std::string mode = "plain";
  int setups = 0;
  int64_t end_ms = 0;
  std::string spans_out;
};

struct WorkloadSpec {
  bool kvs = false;
  int host_workers = 1;
  bool nomad = false;
  GupsConfig gups;
  KvsConfig kvs_config;
  SimTime deadline = 0;  // GUPS only; FlexKVS runs to completion
};

// Virtual-time lengths. Each workload keeps its paper bench's configuration
// but stops early enough that one run takes ~1-4 s of host time, so a
// measurement holds several runs and reports their median (host timing on a
// shared machine has a heavy slow tail).
constexpr SimTime kHotsetWarmup = 300 * kMillisecond;  // paper bench: 400 ms
constexpr SimTime kHotsetWindow = 20 * kMillisecond;   // paper bench: 60 ms
constexpr SimTime kThrashWarmup = 150 * kMillisecond;
constexpr SimTime kThrashEnd = 250 * kMillisecond;  // paper bench: 900 ms

bool MakeSpec(const Options& opt, WorkloadSpec* spec) {
  const std::string& name = opt.workload;
  if (name == "gups-hotset" || name == "gups-hotset-w2") {
    spec->host_workers = name == "gups-hotset-w2" ? 2 : 1;
    spec->gups = StandardHotGups();
    spec->gups.measure_after = kHotsetWarmup;
    spec->deadline = kHotsetWarmup + kHotsetWindow;
  } else if (name == "thrash-nomad") {
    // bench/thrash_migration.cc's RunMode("nomad"): two hot-set rotations.
    spec->nomad = true;
    spec->gups = StandardHotGups();
    spec->gups.hot_fraction = 0.75;
    spec->gups.shift_at = kThrashWarmup;
    spec->gups.shift_period = 50 * kMillisecond;
    spec->gups.shift_bytes = PaperGiB(8);
    spec->gups.write_only_hot_fraction = 0.25;
    spec->gups.prefill = false;
    spec->gups.series_bucket = 20 * kMillisecond;
    spec->gups.measure_after = kThrashWarmup;
    spec->deadline = kThrashEnd;
  } else if (name == "kvs-700") {
    // bench/tbl3_flexkvs.cc's ScaledKvs(700) at full load (closed loop).
    // The log is 1.2x the dataset instead of FlexKVS's default 1.6x: at
    // 1.6x the log outgrows the machine's frames once SETs have appended
    // ~1 GB (paper scale: ~250 GB), and HeMem's fault path then maps pages
    // without a frame. At 1.2x the cleaner starts after ~0.5 GB of appends
    // and keeps the log inside physical memory.
    spec->kvs = true;
    KvsConfig& kvs = spec->kvs_config;
    kvs.value_bytes = 4096;
    kvs.server_threads = 8;
    kvs.num_keys = PaperGiB(700.0, 256.0) / 4224;
    kvs.requests_per_thread = 300'000;
    kvs.warmup_requests_per_thread = 50'000;
    kvs.bulk_load = true;
    kvs.log_overprovision = 1.2;
    kvs.seed = opt.seed;
  } else {
    return false;
  }
  if (!spec->kvs) {
    spec->gups.updates_per_thread = ~0ull >> 2;  // deadline-bounded
    spec->gups.seed = opt.seed;
    spec->gups.verify = opt.mode == "verify";
    if (opt.end_ms > 0) {
      spec->deadline = static_cast<SimTime>(opt.end_ms) * kMillisecond;
    }
  }
  return true;
}

// One set-up instance of a workload. Members destruct in reverse order:
// app, tracer, manager, machine.
struct Instance {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<TieredMemoryManager> manager;
  std::unique_ptr<perfbench::AccessTracer> tracer;
  std::unique_ptr<GupsBenchmark> gups;
  std::unique_ptr<FlexKvs> kvs;
  // Host ns since the instance's origin at the end of each set-up phase.
  uint64_t machine_done_ns = 0;
  uint64_t manager_done_ns = 0;
  uint64_t app_done_ns = 0;
  Clock::time_point origin;

  TieredMemoryManager& app_manager() {
    return tracer != nullptr ? static_cast<TieredMemoryManager&>(*tracer) : *manager;
  }
  Hemem& hemem() { return static_cast<Hemem&>(*manager); }
};

std::unique_ptr<Instance> SetUp(const WorkloadSpec& spec, bool traced) {
  auto inst = std::make_unique<Instance>();
  inst->origin = Clock::now();
  inst->machine = std::make_unique<Machine>(GupsMachine());
  inst->machine->EnableHostWorkers(spec.host_workers);
  inst->machine_done_ns = NsSince(inst->origin, Clock::now());
  inst->manager =
      MakeSystem("HeMem", *inst->machine, {}, spec.nomad ? "nomad" : "exclusive");
  if (traced) {
    inst->tracer = std::make_unique<perfbench::AccessTracer>(*inst->manager);
  }
  inst->app_manager().Start();
  inst->manager_done_ns = NsSince(inst->origin, Clock::now());
  if (spec.kvs) {
    inst->kvs = std::make_unique<FlexKvs>(inst->app_manager(), spec.kvs_config);
    inst->kvs->Prepare();
  } else {
    inst->gups = std::make_unique<GupsBenchmark>(inst->app_manager(), spec.gups);
    inst->gups->Prepare();
  }
  inst->app_done_ns = NsSince(inst->origin, Clock::now());
  return inst;
}

// ---- JSON output -----------------------------------------------------------

class JsonOut {
 public:
  void Key(const char* key) {
    Sep();
    std::printf("\"%s\":", key);
    fresh_ = true;
  }
  void Num(const char* key, uint64_t v) {
    Key(key);
    std::printf("%" PRIu64, v);
    fresh_ = false;
  }
  void Num(const char* key, double v) {
    Key(key);
    std::printf("%.17g", v);
    fresh_ = false;
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    std::printf("\"");
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        std::printf("\\%c", c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::printf("\\u%04x", c);
      } else {
        std::printf("%c", c);
      }
    }
    std::printf("\"");
    fresh_ = false;
  }
  void Bool(const char* key, bool v) {
    Key(key);
    std::printf("%s", v ? "true" : "false");
    fresh_ = false;
  }
  void Open(const char* key) {
    if (key != nullptr) {
      Key(key);
    } else {
      Sep();
    }
    std::printf("{");
    fresh_ = true;
  }
  void Close() {
    std::printf("}");
    fresh_ = false;
  }
  void OpenArray(const char* key) {
    Key(key);
    std::printf("[");
    fresh_ = true;
  }
  void CloseArray() {
    std::printf("]");
    fresh_ = false;
  }
  void Elem(double v) {
    Sep();
    std::printf("%.17g", v);
    fresh_ = false;
  }

 private:
  void Sep() {
    if (!fresh_) {
      std::printf(",");
    }
  }
  bool fresh_ = true;
};

void EmitDevice(JsonOut& out, const char* key, const DeviceStats& s) {
  out.Open(key);
  out.Num("loads", s.loads);
  out.Num("stores", s.stores);
  out.Num("bytes_requested_read", s.bytes_requested_read);
  out.Num("bytes_requested_written", s.bytes_requested_written);
  out.Num("media_bytes_read", s.media_bytes_read);
  out.Num("media_bytes_written", s.media_bytes_written);
  out.Num("sequential_hits", s.sequential_hits);
  out.Num("queue_delay_total_ns", s.queue_delay_total_ns);
  out.Num("queue_delay_max_ns", s.queue_delay_max_ns);
  out.Num("degraded_accesses", s.degraded_accesses);
  out.Close();
}

void EmitManager(JsonOut& out, const ManagerStats& s) {
  out.Open("manager");
  out.Num("missing_faults", s.missing_faults);
  out.Num("wp_faults", s.wp_faults);
  out.Num("wp_wait_ns", static_cast<uint64_t>(s.wp_wait_ns));
  out.Num("pages_promoted", s.pages_promoted);
  out.Num("pages_demoted", s.pages_demoted);
  out.Num("bytes_migrated", s.bytes_migrated);
  out.Num("small_allocs", s.small_allocs);
  out.Num("managed_allocs", s.managed_allocs);
  out.Close();
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// Frames are conserved: every allocated frame is a present mapping, a nomad
// shadow (NVM), or an in-flight transaction destination.
void CheckFrames(Instance& inst, std::vector<Check>* checks) {
  Machine& machine = *inst.machine;
  Hemem& hemem = inst.hemem();
  uint64_t present[kNumTiers] = {0, 0};
  machine.page_table().ForEachRegion([&](Region& region) {
    for (const PageEntry& entry : region.pages) {
      if (entry.present && !entry.swapped) {
        present[static_cast<int>(entry.tier)]++;
      }
    }
  });
  for (const Tier tier : {Tier::kDram, Tier::kNvm}) {
    uint64_t expected = present[static_cast<int>(tier)] + hemem.pending_txn_frames(tier);
    if (tier == Tier::kNvm) {
      expected += hemem.shadow_pages();
    }
    const uint64_t used = machine.frames(tier).used_frames();
    checks->push_back({std::string("frames.") + TierName(tier) + ".conserved",
                       used == expected,
                       "used " + std::to_string(used) + " expected " +
                           std::to_string(expected)});
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload <gups-hotset|gups-hotset-w2|"
               "thrash-nomad|kvs-700> --seed <n> [--mode plain|traced|verify] "
               "[--setups <k>] [--end-ms <ms>] [--spans-out <path>]\n");
  return 2;
}

bool WriteSpans(const std::string& path, const std::string& run_id, const Instance& inst,
                uint64_t run_start_ns, uint64_t run_end_ns,
                const perfbench::AccessSpans& access) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"run_id\":\"%s\",\"spans\":[\n", run_id.c_str());
  const auto span = [&](const char* name, uint64_t start, uint64_t end) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"parent\":\"workload\",\"run_id\":\"%s\","
                 "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "},\n",
                 name, run_id.c_str(), start, end);
  };
  span("setup.machine", 0, inst.machine_done_ns);
  span("setup.manager", inst.machine_done_ns, inst.manager_done_ns);
  span("setup.app", inst.manager_done_ns, inst.app_done_ns);
  span("run", run_start_ns, run_end_ns);
  // The aggregate of every per-access span, children of "run".
  std::fprintf(f,
               "{\"name\":\"tier.access\",\"parent\":\"run\",\"run_id\":\"%s\","
               "\"aggregate\":true,\"count\":%" PRIu64 ",\"total_ns\":%" PRIu64
               ",\"histogram_ns\":{",
               run_id.c_str(), access.count, access.total_ns);
  bool first = true;
  for (int b = 0; b < perfbench::CallHistogram::kBuckets; ++b) {
    if (access.histogram.count(b) == 0) {
      continue;
    }
    std::fprintf(f, "%s\"%" PRIu64 "\":%" PRIu64, first ? "" : ",",
                 perfbench::CallHistogram::LowerBound(b), access.histogram.count(b));
    first = false;
  }
  std::fprintf(f, "}}\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--mode") {
      opt.mode = value;
    } else if (arg == "--setups") {
      opt.setups = std::atoi(value);
    } else if (arg == "--end-ms") {
      opt.end_ms = std::atoll(value);
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (!MakeSpec(opt, &spec) ||
      (opt.mode != "plain" && opt.mode != "traced" && opt.mode != "verify") ||
      (opt.mode == "verify" && spec.kvs)) {
    return Usage();
  }
  const bool traced = opt.mode == "traced";

  const auto t0 = Clock::now();
  std::unique_ptr<Instance> inst = SetUp(spec, traced);
  const auto t1 = Clock::now();
  std::vector<double> setup_s = {SecondsBetween(t0, t1)};

  GupsResult gups_result;
  KvsResult kvs_result;
  if (spec.kvs) {
    kvs_result = inst->kvs->Run();
  } else {
    gups_result = inst->gups->Run(spec.deadline);
  }
  const auto t2 = Clock::now();

  Machine& machine = *inst->machine;
  Hemem& hemem = inst->hemem();
  const Engine& engine = machine.engine();
  std::vector<Check> checks;
  CheckFrames(*inst, &checks);
  if (spec.nomad) {
    std::string why;
    const bool ok = hemem.CheckNomadInvariants(&why);
    checks.push_back({"hemem.nomad_invariants", ok, ok ? "" : why});
  }
  if (spec.kvs) {
    const KvsStats& ks = inst->kvs->kvs_stats();
    checks.push_back({"kvs.get_misses", ks.get_misses == 0,
                      std::to_string(ks.get_misses) + " misses"});
    checks.push_back({"kvs.requests", kvs_result.total_requests > 0,
                      std::to_string(kvs_result.total_requests) + " requests"});
  } else {
    checks.push_back({"gups.updates", gups_result.total_updates > 0,
                      std::to_string(gups_result.total_updates) + " updates"});
  }
  if (opt.mode == "verify") {
    const uint64_t verify_mismatches = inst->gups->VerifyData();
    checks.push_back({"gups.verify_data",
                      verify_mismatches == 0 && inst->gups->verified_words() > 0,
                      std::to_string(verify_mismatches) + " of " +
                          std::to_string(inst->gups->verified_words()) +
                          " words mismatched"});
  }
  perfbench::AccessSpans access;
  if (traced) {
    access = inst->tracer->Collect();
    checks.push_back({"trace.accesses_recorded", access.count > 0,
                      std::to_string(access.count) + " accesses"});
    if (!opt.spans_out.empty()) {
      const std::string run_id =
          opt.workload + "-seed" + std::to_string(opt.seed) + "-traced";
      const bool ok = WriteSpans(opt.spans_out, run_id, *inst, NsSince(inst->origin, t1),
                                 NsSince(inst->origin, t2), access);
      checks.push_back({"trace.spans_written", ok, opt.spans_out});
    }
  }

  // Peak RSS of the measured instance, taken before the extra set-ups.
  const uint64_t peak_rss_kb = PeakRssKb();
  for (int i = 0; i < opt.setups; ++i) {
    const auto start = Clock::now();
    auto extra = SetUp(spec, traced);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }

  JsonOut out;
  out.Open(nullptr);
  out.Str("workload", opt.workload);
  out.Num("seed", opt.seed);
  out.Str("mode", opt.mode);
  out.Open("build");
  out.Str("type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  out.Bool("ndebug", true);
#else
  out.Bool("ndebug", false);
#endif
#ifdef __OPTIMIZE__
  out.Bool("optimized", true);
#else
  out.Bool("optimized", false);
#endif
  out.Close();
  out.OpenArray("setup_s");
  for (const double s : setup_s) {
    out.Elem(s);
  }
  out.CloseArray();
  out.Num("run_s", SecondsBetween(t1, t2));
  out.Num("peak_rss_kb", peak_rss_kb);

  out.Open("fingerprint");
  out.Num("end_ns", static_cast<uint64_t>(engine.now()));
  EmitManager(out, hemem.stats());
  EmitDevice(out, "dram", machine.dram().stats());
  EmitDevice(out, "nvm", machine.nvm().stats());
  out.Close();

  // Raw per-layer counters; run.py derives the named metrics and ratios.
  const Engine::EpochStats& es = engine.epoch_stats();
  uint64_t busy_ns = 0;
  uint64_t stall_ns = 0;
  for (const Engine::WorkerStats& w : engine.worker_stats()) {
    busy_ns += w.busy_ns;
    stall_ns += w.stall_ns;
  }
  const ManagerStats& ms = hemem.stats();
  const HememStats& hs = hemem.hstats();
  const PebsStats& ps = machine.pebs().stats();
  out.Open("counters");
  out.Num("sim.virtual_ns", static_cast<uint64_t>(engine.now()));
  out.Num("sim.epochs", es.epochs);
  out.Num("sim.epochs_rejected", es.rejected);
  out.Num("sim.epoch_virtual_ns", es.virtual_ns);
  out.Num("sim.barrier_ns", es.barrier_ns);
  out.Num("sim.worker_busy_ns", busy_ns);
  out.Num("sim.worker_stall_ns", stall_ns);
  out.Num("tier.missing_faults", ms.missing_faults);
  out.Num("tier.wp_faults", ms.wp_faults);
  out.Num("tier.wp_wait_ns", static_cast<uint64_t>(ms.wp_wait_ns));
  out.Num("mem.dram.accesses", machine.dram().stats().loads + machine.dram().stats().stores);
  out.Num("mem.nvm.accesses", machine.nvm().stats().loads + machine.nvm().stats().stores);
  out.Num("mem.dram.queue_delay_ns", machine.dram().stats().queue_delay_total_ns);
  out.Num("mem.nvm.queue_delay_ns", machine.nvm().stats().queue_delay_total_ns);
  out.Num("mem.nvm.media_bytes_written", machine.nvm().stats().media_bytes_written);
  out.Num("mem.dma.batches", machine.dma().stats().batches);
  out.Num("mem.dma.bytes_copied", machine.dma().stats().bytes_copied);
  out.Num("vm.tlb.shootdowns", machine.tlb().stats().shootdowns);
  out.Num("vm.tlb.victim_interrupts", machine.tlb().stats().victim_interrupts);
  out.Num("pebs.accesses_counted", ps.accesses_counted);
  out.Num("pebs.samples_written", ps.samples_written);
  out.Num("pebs.samples_dropped", ps.samples_dropped);
  out.Num("pebs.samples_drained", ps.samples_drained);
  out.Num("core.policy_passes", hs.policy_passes);
  out.Num("core.pages_promoted", ms.pages_promoted);
  out.Num("core.pages_demoted", ms.pages_demoted);
  out.Num("core.bytes_migrated", ms.bytes_migrated);
  out.Num("core.promotion_stalls", hs.promotion_stalls);
  out.Num("core.txn_starts", hs.txn_starts);
  out.Num("core.txn_aborts", hs.txn_aborts);
  out.Num("core.shadow_demotions", hs.shadow_demotions);
  if (spec.kvs) {
    const KvsStats& ks = inst->kvs->kvs_stats();
    out.Num("apps.kvs.requests", kvs_result.total_requests);
    out.Num("apps.kvs.gets", ks.gets);
    out.Num("apps.kvs.chain_blocks_walked", ks.chain_blocks_walked);
    out.Num("apps.kvs.segments_cleaned", ks.segments_cleaned);
    out.Num("apps.kvs.items_relocated", ks.items_relocated);
  } else {
    out.Num("apps.gups.updates", gups_result.total_updates);
  }
  out.Close();

  out.Open("model");
  if (spec.kvs) {
    out.Num("kvs_mops", kvs_result.mops);
    out.Num("kvs_p50_us", kvs_result.latency.Percentile(0.5));
    out.Num("kvs_p999_us", kvs_result.latency.Percentile(0.999));
    out.Num("kvs_latency_samples", kvs_result.latency.count());
  } else {
    out.Num("gups", gups_result.gups);
  }
  out.Close();

  if (traced) {
    out.Open("trace");
    out.Num("accesses", access.count);
    out.Num("access_ns", access.total_ns);
    out.Num("access_p50_ns", access.histogram.Percentile(0.5));
    out.Num("access_p999_ns", access.histogram.Percentile(0.999));
    out.Num("setup_machine_ns", inst->machine_done_ns);
    out.Num("setup_manager_ns", inst->manager_done_ns - inst->machine_done_ns);
    out.Num("setup_app_ns", inst->app_done_ns - inst->manager_done_ns);
    out.Close();
  }

  out.OpenArray("checks");
  for (const Check& c : checks) {
    out.Open(nullptr);
    out.Str("name", c.name);
    out.Bool("ok", c.ok);
    out.Str("detail", c.detail);
    out.Close();
  }
  out.CloseArray();
  out.Close();
  std::printf("\n");
  return 0;
}
