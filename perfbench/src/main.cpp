// beebench: the threaded-runtime benchmark (perfbench/README.md).
//
//   beebench --workload kandoo_local|cross_hive|te_decoupled --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// One process, one generator thread (this one) driving a 2-hive
// ThreadCluster in its default configuration. Prints every metric by name
// with its unit, then one JSON object as the last line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check fails.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "bench.h"
#include "core/hive.h"
#include "instrument/metrics.h"

// ---------------------------------------------------------------------------
// Allocation counting: operator new is replaced for this binary (as in
// bench/micro_dispatch.cpp). Each thread counts into its own slot so the
// counting adds no shared cache line to the hot path; the generator thread
// does not count.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
constexpr std::size_t kAllocSlots = 256;
perfbench::SoloCounter g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_alloc_next{0};
thread_local int t_alloc_slot = -1;  // -1 unassigned, -2 generator

void count_alloc() {
  int slot = t_alloc_slot;
  if (slot == -2) return;
  if (slot < 0) {
    const std::size_t s = g_alloc_next.fetch_add(1, std::memory_order_relaxed);
    slot = static_cast<int>(s < kAllocSlots ? s : kAllocSlots - 1);
    t_alloc_slot = slot;
  }
  if (static_cast<std::size_t>(slot) == kAllocSlots - 1) {
    g_alloc_slots[slot].v.fetch_add(1, std::memory_order_relaxed);  // shared
  } else {
    g_alloc_slots[slot].bump();
  }
}
}  // namespace

void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  count_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  count_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return ::operator new(n, al, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocs_off_generator() {
  std::uint64_t n = 0;
  for (const auto& s : g_alloc_slots) n += s.get();
  return n;
}
void mark_generator_thread() { t_alloc_slot = -2; }

namespace {

using namespace beehive;

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of every thread but the calling (generator) thread.
std::int64_t hive_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu_ns(CLOCK_THREAD_CPUTIME_ID);
}

double current_rss_bytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Core placement. With at least kHives + 2 cores, hive i's loop is pinned
/// to core 1 + i and the generator to the core after them, leaving core 0
/// to everything else; otherwise nothing is pinned. Fixed placement keeps
/// the three busy threads off each other's cores, which is what made
/// unpinned cross_hive throughput bimodal between runs.
int first_hive_core() {
  return std::thread::hardware_concurrency() >= kHives + 2 ? 1 : -1;
}

void pin_generator() {
  const int first = first_hive_core();
  if (first < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(first + static_cast<int>(kHives), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

ThreadClusterConfig cluster_config() {
  ThreadClusterConfig config;
  config.hive.pin_cpu = first_hive_core();
  return config;
}

/// Runs `fn` on hive `h`'s loop thread and waits for it.
void on_hive(ThreadCluster& cluster, HiveId h, std::function<void()> fn) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  cluster.post(h, [fn = std::move(fn), done] {
    fn();
    done->store(true, std::memory_order_release);
  });
  wait_until([&] { return done->load(std::memory_order_acquire); }, 30);
}

// ---------------------------------------------------------------------------
// Generator: prebuilt envelopes are copied into preallocated batch slots
// and handed to a hive with one ThreadCluster::post per slot. While a
// posted slot has not started running, the generator keeps appending to
// it, so a hive that falls behind receives fewer, larger batches instead
// of a growing run queue. A slot is reused only after its closure has run:
// generator memory is fixed.
// ---------------------------------------------------------------------------

constexpr std::size_t kBatch = 32;
constexpr std::size_t kSlots = 512;

struct Slot {
  /// Events published to the closure; kStarted once it took them.
  static constexpr std::uint32_t kStarted = 1u << 31;
  std::atomic<std::uint32_t> state{0};
  std::atomic<bool> busy{false};
  std::atomic<std::uint32_t> n_stamped{0};
  std::atomic<std::int64_t> posted_ns{0};
  std::atomic<std::uint32_t> post_span{0};
  std::uint32_t filled = 0;  ///< generator-side count
  bool posted = false;       ///< generator-side
  HiveId h = 0;
  Hive* hive = nullptr;
  Shared* shared = nullptr;
  bool count_ingress = false;
  std::array<MessageEnvelope, kBatch> env;
  struct Stamp {
    std::uint32_t pos;
    std::uint32_t sample;
  };
  std::array<Stamp, kBatch * 4> stamped{};

  void run() {
    Shared& sh = *shared;
    const std::uint32_t n = state.exchange(kStarted, std::memory_order_acq_rel);
    const bool traced = sh.traced.load(std::memory_order_relaxed);
    const std::int64_t started = traced ? now_ns() : 0;
    if (traced) {
      // 0 when the closure started before post() returned.
      const std::int64_t posted_at = posted_ns.load(std::memory_order_acquire);
      sh.handoff[h].record(posted_at == 0 ? 0 : started - posted_at);
    }
    const std::int64_t t0 = traced ? now_ns() : 0;
    hive->inject_batch(std::span<MessageEnvelope>(env.data(), n));
    if (count_ingress) sh.done[h].bump(n);
    if (traced) {
      const std::int64_t t1 = now_ns();
      sh.inject_ns[h].bump(static_cast<std::uint64_t>(t1 - t0));
      sh.inject_msgs[h].bump(n);
      const std::uint32_t ns = n_stamped.load(std::memory_order_acquire);
      // Spans only for batches that carry a latency sample: their event
      // ids tie post, ingress and sink together.
      std::uint32_t ingress_span = 0;
      if (sh.spans != nullptr && ns > 0) {
        const std::uint32_t parent = post_span.load(std::memory_order_relaxed);
        const std::uint64_t event = sh.sample_event(stamped[0].sample);
        sh.spans->record(h, Span{kSpanInject, 0, parent, t0, t1, event});
        ingress_span = sh.spans->record(
            h, Span{kSpanIngress, 0, parent, started, now_ns(), event});
      }
      for (std::uint32_t i = 0; i < ns; ++i) {
        if (stamped[i].pos < n) {
          KeySample& k = sh.samples[stamped[i].sample];
          k.ingress_span.store(ingress_span, std::memory_order_relaxed);
          k.ingress_end.store(t1, std::memory_order_relaxed);
        }
      }
    }
    busy.store(false, std::memory_order_release);
  }
};

/// Raw totals of fixed-rate phases; summed over phases, divided at the end.
struct OpenTotals {
  std::uint64_t completed = 0;
  std::int64_t cpu_ns = 0;  ///< process CPU minus the generator's
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;

  void add(const OpenTotals& o) {
    completed += o.completed;
    cpu_ns += o.cpu_ns;
    allocs += o.allocs;
    bytes += o.bytes;
    frames += o.frames;
  }
  double per_msg(double v) const {
    return v / static_cast<double>(std::max<std::uint64_t>(completed, 1));
  }
  double cpu_us_per_msg() const {
    return per_msg(static_cast<double>(cpu_ns) / 1000.0);
  }
};

class Runner {
 public:
  Runner(ThreadCluster& cluster, Workload& wl)
      : cluster_(cluster), wl_(wl), sh_(wl.shared()), base_(sh_.completed()) {
    for (HiveId h = 0; h < kHives; ++h) {
      slots_[h] = std::make_unique<Slot[]>(kSlots);
      for (std::size_t i = 0; i < kSlots; ++i) {
        Slot& s = slots_[h][i];
        s.h = h;
        s.hive = &cluster.hive(h);
        s.shared = &sh_;
        s.count_ingress = wl.completes_at_ingress();
      }
    }
  }

  std::uint64_t sent() const { return sent_; }
  /// Completions of the events this runner sent (set-up excluded).
  std::uint64_t completed() const { return sh_.completed() - base_; }
  const HistogramMetric& lateness() const { return late_; }
  const HistogramMetric& post_ns() const { return post_; }

  void push(const Event& e) {
    const HiveId h = e.hive;
    for (;;) {
      Slot* s = open_[h] != nullptr ? open_[h] : fresh(h);
      const std::uint32_t k = s->filled;
      if (k == kBatch) {
        close(h);
        continue;
      }
      s->env[k] = *e.env;
      std::uint32_t ns = s->n_stamped.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < e.n_stamped && ns < s->stamped.size(); ++i) {
        s->stamped[ns++] = {k, e.stamped[i]};
      }
      s->n_stamped.store(ns, std::memory_order_release);
      std::uint32_t expect = k;
      if (s->state.compare_exchange_strong(expect, k + 1,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        s->filled = k + 1;
        break;
      }
      open_[h] = nullptr;  // its closure already took the batch
    }
    ++sent_;
  }

  /// Posts hive h's open slot if it has not been posted yet; the slot
  /// stays open for appends until its closure starts.
  void flush(HiveId h) {
    Slot* s = open_[h];
    if (s == nullptr || s->posted || s->filled == 0) return;
    s->posted = true;
    const bool traced = sh_.traced.load(std::memory_order_relaxed);
    const std::int64_t t0 = traced ? now_ns() : 0;
    cluster_.post(h, [s] { s->run(); });
    if (traced) {
      const std::int64_t t1 = now_ns();
      s->posted_ns.store(t1, std::memory_order_release);
      post_.record(t1 - t0);
      const std::uint32_t ns = s->n_stamped.load(std::memory_order_relaxed);
      if (sh_.spans != nullptr && ns > 0) {
        const std::uint64_t event = sh_.sample_event(s->stamped[0].sample);
        s->post_span.store(
            sh_.spans->record(kHives, Span{kSpanPost, 0, 0, t0, t1, event}),
            std::memory_order_relaxed);
      }
    }
  }

  void flush_all() {
    for (HiveId h = 0; h < kHives; ++h) flush(h);
  }

  /// Closed loop: keeps `window` events outstanding for `seconds`, polling
  /// the completion count every 50 us. The phase is cut into equal windows
  /// of at most one second; returns each window's completions per second.
  std::vector<double> closed(double seconds, std::uint64_t window) {
    std::vector<double> per_second;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto window_ns =
        static_cast<std::int64_t>(seconds * 1e9 / std::ceil(seconds));
    std::int64_t next_poll = start;
    std::int64_t sec_start = start;
    std::uint64_t comp = completed();
    std::uint64_t busy = wl_.in_flight();
    std::uint64_t sec_base = comp;
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= next_poll) {
        comp = completed();
        busy = wl_.in_flight();
        next_poll = now + 50'000;
        if (now - sec_start >= window_ns) {
          per_second.push_back(static_cast<double>(comp - sec_base) * 1e9 /
                                 static_cast<double>(now - sec_start));
          sec_base = comp;
          sec_start = now;
        }
        if (now >= end) break;
      }
      const std::uint64_t outstanding = sent_ - comp + busy;
      if (outstanding < window) {
        const std::uint64_t room =
            std::min<std::uint64_t>(window - outstanding, 2 * kBatch);
        for (std::uint64_t i = 0; i < room; ++i) push(wl_.next(false, 0));
        flush_all();
      } else {
        cpu_relax();
      }
    }
    return per_second;
  }

  /// Open loop at `rate` events/s, spin-paced: event i is due at
  /// start + i/rate and goes out as soon as it is due; every
  /// (mask+1)-th event is a latency sample measured from its due time.
  OpenTotals open(double seconds, double rate, std::uint64_t mask) {
    const auto total = static_cast<std::uint64_t>(seconds * rate);
    const std::uint64_t alloc0 = allocs_off_generator();
    const std::uint64_t bytes0 = cluster_.meter().total_bytes();
    const std::uint64_t frames0 = cluster_.meter().total_messages();
    const std::uint64_t comp0 = completed();
    const std::int64_t proc0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t gen0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    Pacer pacer(now_ns() + 200'000, rate);
    std::uint64_t i = 0;
    while (i < total) {
      const std::int64_t now = now_ns();
      if (now < pacer.due(i)) {
        cpu_relax();
        continue;
      }
      const std::uint64_t first = i;
      while (i < total && i - first < 2 * kBatch && pacer.due(i) <= now) {
        push(wl_.next((i & mask) == 0, pacer.due(i)));
        ++i;
      }
      flush_all();
      const std::int64_t sent_at = now_ns();
      for (std::uint64_t j = first; j < i; ++j) {
        late_.record(pacer.lateness(j, sent_at));
      }
    }
    OpenTotals r;
    r.cpu_ns = (cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - proc0) -
               (cpu_ns(CLOCK_THREAD_CPUTIME_ID) - gen0);
    r.allocs = allocs_off_generator() - alloc0;
    r.completed = completed() - comp0;
    r.bytes = cluster_.meter().total_bytes() - bytes0;
    r.frames = cluster_.meter().total_messages() - frames0;
    return r;
  }

  /// Waits until every sent event completed and its effects settled.
  bool drain(double timeout_s) {
    flush_all();
    return wait_until(
        [&] { return completed() >= sent_ && wl_.settled(); }, timeout_s);
  }

 private:
  Slot* fresh(HiveId h) {
    Slot* s = &slots_[h][next_[h]];
    while (s->busy.load(std::memory_order_acquire)) cpu_relax();
    next_[h] = (next_[h] + 1) % kSlots;
    s->state.store(0, std::memory_order_relaxed);
    s->n_stamped.store(0, std::memory_order_relaxed);
    s->posted_ns.store(0, std::memory_order_relaxed);
    s->post_span.store(0, std::memory_order_relaxed);
    s->filled = 0;
    s->posted = false;
    s->busy.store(true, std::memory_order_relaxed);
    open_[h] = s;
    return s;
  }

  /// Stops appending to hive h's open slot, posting it first if needed.
  void close(HiveId h) {
    flush(h);
    open_[h] = nullptr;
  }

  ThreadCluster& cluster_;
  Workload& wl_;
  Shared& sh_;
  const std::uint64_t base_;
  std::array<std::unique_ptr<Slot[]>, kHives> slots_;
  std::array<std::size_t, kHives> next_{};
  std::array<Slot*, kHives> open_{};
  std::uint64_t sent_ = 0;
  HistogramMetric late_;
  HistogramMetric post_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_table(std::string_view workload, const char* kind,
                 const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-13s %-6s %-28s %16s %s\n", std::string(workload).c_str(),
                kind, m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else if (k == "--trace-out") o.trace_out = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0 && argc % 2 == 1;
}

/// Hive-side failures that make fail_ratio non-zero.
std::uint64_t hive_failures(ThreadCluster& cluster) {
  std::uint64_t n = 0;
  for (HiveId h = 0; h < kHives; ++h) {
    const Hive::Counters& c = cluster.hive(h).counters();
    n += c.handler_failures.get() + c.registry_failures.get() +
         c.shed_total.get();
  }
  return n;
}

struct CacheCounts {
  std::uint64_t hits = 0, misses = 0;
};
CacheCounts cache_counts(ThreadCluster& cluster) {
  CacheCounts c;
  for (HiveId h = 0; h < kHives; ++h) {
    std::uint64_t hits = 0, misses = 0;
    on_hive(cluster, h, [&] {
      hits = cluster.hive(h).registry_client().cache_hits();
      misses = cluster.hive(h).registry_client().cache_misses();
    });
    c.hits += hits;
    c.misses += misses;
  }
  return c;
}

/// Direct hop probes for the hop a workload does not take live: a frame of
/// the workload's message from hive 0's loop to a decode on hive 1
/// (transit), or a deferred task after dispatch_delay on hive 1 (emission
/// hop). 2000 probes, 100 us apart, on an otherwise idle cluster.
double direct_hop_us(ThreadCluster& cluster, const MessageEnvelope& msg,
                     bool transit) {
  auto hist = std::make_shared<HistogramMetric>();
  const Duration delay = cluster.hive(1).config().dispatch_delay;
  for (int i = 0; i < 2000; ++i) {
    if (transit) {
      cluster.post(0, [&cluster, &msg, hist] {
        const std::int64_t t0 = now_ns();
        Bytes frame = msg.to_wire();
        cluster.post(1, [hist, t0, f = std::move(frame)] {
          MessageEnvelope env = MessageEnvelope::from_wire(f);
          (void)env;
          hist->record(now_ns() - t0);
        });
      });
    } else {
      cluster.post(1, [&cluster, hist, delay] {
        const std::int64_t t0 = now_ns();
        cluster.schedule_after(1, delay,
                               [hist, t0] { hist->record(now_ns() - t0); });
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  wait_until([&] { return hist->count() == 2000; }, 10);
  return quantile(hist->snapshot(), 0.5) / 1000.0;
}

struct Setup {
  std::unique_ptr<ThreadCluster> cluster;
  double seconds = 0;
  double bytes_per_bee = 0;
  bool ok = true;
};

/// Builds the workload's cluster and deploys every bee it uses.
Setup set_up(Workload& wl) {
  Setup s;
  wl.reset();
  const double rss0 = current_rss_bytes();
  const std::int64_t t0 = now_ns();
  s.cluster = std::make_unique<ThreadCluster>(cluster_config(), wl.apps());
  wl.configure(*s.cluster);
  s.cluster->start();
  s.ok = wl.deploy(*s.cluster);
  s.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  s.bytes_per_bee =
      (current_rss_bytes() - rss0) / static_cast<double>(wl.bees());
  return s;
}

/// Times set_up() in forked child processes, at least `min_reps` times and
/// until `min_total_s` of set-up time has been measured (at most 200 reps,
/// which a few-millisecond set-up needs to fill a second). Each child
/// starts where the measured cluster starts, in a process that has built
/// no cluster yet, so every repetition measures the same thing; repeated
/// inside one process, a cluster would inherit the malloc arenas of the
/// clusters before it in a racy order. fork() copies only the calling
/// thread, so call this while the process runs no other. Returns an empty
/// vector when a set-up fails.
std::vector<double> set_up_in_children(Workload& wl, std::size_t min_reps,
                                       double min_total_s) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < 200 &&
         (seconds.size() < min_reps || total < min_total_s)) {
    int fd[2];
    if (pipe(fd) != 0) return {};
    const pid_t pid = fork();
    if (pid == 0) {
      close(fd[0]);
      const Setup s = set_up(wl);
      const double v = s.ok ? s.seconds : -1.0;
      const bool sent = write(fd[1], &v, sizeof v) == sizeof v;
      _exit(sent ? 0 : 1);  // ends the cluster's threads with the process
    }
    close(fd[1]);
    double v = -1.0;
    const bool got = pid > 0 && read(fd[0], &v, sizeof v) == sizeof v;
    close(fd[0]);
    if (pid > 0) waitpid(pid, nullptr, 0);
    if (!got || v < 0) return {};
    seconds.push_back(v);
    total += v;
  }
  return seconds;
}

/// Measurement layout. An untraced run alternates kRounds closed-loop and
/// fixed-rate phases on one cluster, splitting --seconds evenly. The box's
/// speed holds still for a few seconds at a time and then moves by up to
/// ±10%, so spreading each metric over many short phases is what keeps the
/// run-to-run spread down. A traced run has three phases: closed loop,
/// fixed rate, traced fixed rate.
constexpr int kRounds = 8;
constexpr std::uint64_t kSampleMask = 15;   ///< 1 in 16 events is timed
constexpr double kWarmupS = 1.0;

int run(const Options& o) {
  std::unique_ptr<Workload> wl = make_workload(o.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  mark_generator_thread();
  pin_generator();
  // MsgTypeRegistry is unlocked; a type first registered on a hive loop
  // races with the other loop's lookups. The metrics report is the one
  // type the platform registers lazily, so register it up front.
  MsgTypeRegistry::instance().ensure<LocalMetricsReport>();
  wl->prepare(o.seed);
  Shared& sh = wl->shared();
  const double rate = wl->fixed_rate();
  std::vector<std::string> errors;

  // The measured cluster is the first one the process builds: its loop
  // threads then get fresh malloc arenas. Clusters built before it would
  // leave their arenas, in a racy order, for its threads to inherit, which
  // moved cross_hive throughput by ±20% from run to run. The other set-up
  // repetitions therefore run in child processes, before any thread starts.
  std::vector<double> setup_s;
  if (!o.trace) {
    setup_s = set_up_in_children(*wl, 4, 1.0);
    if (setup_s.empty()) {
      std::fprintf(stderr, "%s: a repeated set-up did not complete\n",
                   o.workload.c_str());
      return 1;
    }
  }
  Setup setup = set_up(*wl);
  setup_s.push_back(setup.seconds);
  if (!setup.ok) {
    std::fprintf(stderr, "%s: set-up did not complete\n", o.workload.c_str());
    return 1;
  }
  ThreadCluster& cluster = *setup.cluster;
  std::unique_ptr<SpanLog> spans;
  if (o.trace) spans = std::make_unique<SpanLog>();
  sh.spans = spans.get();
  Runner runner(cluster, *wl);
  runner.closed(kWarmupS, wl->window());  // caches, memos, MAC tables

  std::vector<double> windows;
  OpenTotals fixed, traced_fixed;
  std::int64_t sat_hive_cpu_ns = 0, sat_wall_ns = 0;
  double overflow_ratio = 0;
  CacheCounts cache0, cache1;
  if (!o.trace) {
    const double phase_s = o.seconds / (2 * kRounds);
    for (int round = 0; round < kRounds; ++round) {
      const std::int64_t cpu0 = hive_cpu_ns();
      const std::int64_t wall0 = now_ns();
      const std::vector<double> w = runner.closed(phase_s, wl->window());
      sat_hive_cpu_ns += hive_cpu_ns() - cpu0;
      sat_wall_ns += now_ns() - wall0;
      runner.drain(10);  // the fixed-rate phase starts from empty queues
      windows.insert(windows.end(), w.begin(), w.end());
      fixed.add(runner.open(phase_s, rate, kSampleMask));
    }
  } else {
    // Untraced closed loop (ring overflow), untraced fixed rate (the
    // baseline of trace.overhead_pct), then the traced fixed-rate phase:
    // every live per-layer figure comes from that last phase alone.
    auto overflow = [&] {
      std::uint64_t of = 0, dr = 0;
      for (HiveId h = 0; h < kHives; ++h) {
        const QueueStats q = cluster.queue_stats(h);
        of += q.overflowed;
        dr += q.drained;
      }
      return std::pair{of, dr};
    };
    const auto [of0, dr0] = overflow();
    windows = runner.closed(o.seconds / 3, wl->window());
    const auto [of1, dr1] = overflow();
    overflow_ratio =
        static_cast<double>(of1 - of0) /
        static_cast<double>(std::max<std::uint64_t>(dr1 - dr0, 1));
    runner.drain(10);
    fixed.add(runner.open(o.seconds / 3, rate, kSampleMask));
    runner.drain(20);
    cache0 = cache_counts(cluster);
    sh.traced.store(true);
    traced_fixed.add(runner.open(o.seconds / 3, rate, kSampleMask));
    sh.traced.store(false);
    cache1 = cache_counts(cluster);
  }
  if (!runner.drain(30)) errors.push_back("events did not drain within 30 s");

  LatencyHistogram lat, hop, handoff;
  for (const auto& h : sh.latency) lat.merge(h.snapshot());
  for (const auto& h : sh.hop) hop.merge(h.snapshot());
  for (const auto& h : sh.handoff) handoff.merge(h.snapshot());
  std::uint64_t inj_ns = 0, inj_msgs = 0;
  for (HiveId h = 0; h < kHives; ++h) {
    inj_ns += sh.inject_ns[h].get();
    inj_msgs += sh.inject_msgs[h].get();
  }
  double transit_us = 0, emit_hop_us = 0;
  if (o.trace) {
    // The workload's own hop is measured live; the other one is probed
    // directly on the now idle cluster.
    const MessageEnvelope crossing = wl->direct_spec().make_emitted();
    if (wl->remote_route()) {
      transit_us = quantile(hop, 0.5) / 1000.0;
      emit_hop_us = direct_hop_us(cluster, crossing, false);
    } else {
      emit_hop_us = quantile(hop, 0.5) / 1000.0;
      transit_us = direct_hop_us(cluster, crossing, true);
    }
  }
  std::uint64_t routed_local = 0, routed_remote = 0;
  for (HiveId h = 0; h < kHives; ++h) {
    routed_local += cluster.hive(h).counters().routed_local.get();
    routed_remote += cluster.hive(h).counters().routed_remote.get();
  }
  cluster.stop();
  wl->check(cluster, errors);
  const std::uint64_t failures = hive_failures(cluster);
  const std::uint64_t attempted = runner.sent();
  const std::uint64_t completed = std::min(runner.completed(), attempted);
  const LatencyHistogram late = runner.lateness().snapshot();
  const LatencyHistogram post = runner.post_ns().snapshot();
  const std::uint64_t failed = attempted - completed + failures;
  const double fail_ratio =
      static_cast<double>(failed) /
      static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  if (failed != 0) {
    errors.push_back("fail_ratio " + num(fail_ratio) + " (" +
                     std::to_string(failures) +
                     " handler/registry failures or sheds)");
  }

  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"p50_us", quantile(lat, 0.5) / 1000.0, "us"},
      {"cpu_us_per_msg", fixed.cpu_us_per_msg(), "us/msg"},
      {"allocs_per_msg", fixed.per_msg(static_cast<double>(fixed.allocs)),
       "allocs/msg"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Saturated throughput is reported but not gated: its ten-run spread
  // on a shared 4-core box reached 28% on cross_hive (README.md).
  std::vector<Metric> diag = {
      {"sat_msgs_per_s", median(windows), "msg/s"},
      {"wire_bytes_per_msg", fixed.per_msg(static_cast<double>(fixed.bytes)),
       "B/msg"},
      {"fail_ratio", fail_ratio, "ratio"},
      {"e2e.p90_us", quantile(lat, 0.9) / 1000.0, "us"},
      {"e2e.p99_us", quantile(lat, 0.99) / 1000.0, "us"},
      {"e2e.samples", static_cast<double>(lat.count()), "count"},
      {"gen.late_p99_us", quantile(late, 0.99) / 1000.0, "us"},
      {"gen.late_max_us", late.max() / 1000.0, "us"},
      {"fixed_rate", rate, "msg/s"},
      {"setup.reps", static_cast<double>(setup_s.size()), "count"},
      {"sat.windows", static_cast<double>(windows.size()), "count"},
      {"sat.min_per_s",
       windows.empty() ? 0 : *std::min_element(windows.begin(), windows.end()),
       "msg/s"},
      {"sat.max_per_s",
       windows.empty() ? 0 : *std::max_element(windows.begin(), windows.end()),
       "msg/s"},
      {"sat.hive_cpu_util",
       static_cast<double>(sat_hive_cpu_ns) /
           static_cast<double>(std::max<std::int64_t>(sat_wall_ns, 1) * kHives),
       "ratio"},
  };

  std::vector<Metric> layers;
  if (o.trace) {
    const DirectResult d = measure_direct(wl->direct_spec(), spans.get());
    const double inject_ns =
        static_cast<double>(inj_ns) /
        static_cast<double>(std::max<std::uint64_t>(inj_msgs, 1));
    const double ledger_ns = ledger_sum_ns(wl->ledger(d, inject_ns));
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double lookups =
        hits + static_cast<double>(cache1.misses - cache0.misses);
    layers = {
        {"cluster.post_ns", quantile(post, 0.5), "ns"},
        {"cluster.handoff_us", quantile(handoff, 0.5) / 1000.0, "us"},
        {"cluster.ring_overflow_ratio", overflow_ratio, "ratio"},
        {"cluster.resolve_hit_ns", d.resolve_hit_ns, "ns"},
        {"cluster.resolve_miss_ns", d.resolve_miss_ns, "ns"},
        {"cluster.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
        {"cluster.frames_per_msg",
         traced_fixed.per_msg(static_cast<double>(traced_fixed.frames)),
         "frames/msg"},
        {"core.inject_ns_per_msg", inject_ns, "ns/msg"},
        {"core.transit_us", transit_us, "us"},
        {"core.emit_hop_us", emit_hop_us, "us"},
        {"core.map_ns", d.map_ns, "ns"},
        {"core.wire_ns", d.wire_ns, "ns"},
        {"core.bytes_per_bee", setup.bytes_per_bee, "B"},
        {"core.locality",
         static_cast<double>(routed_local) /
             static_cast<double>(
                 std::max<std::uint64_t>(routed_local + routed_remote, 1)),
         "ratio"},
        {"msg.encode_ns", d.encode_ns, "ns"},
        {"msg.decode_ns", d.decode_ns, "ns"},
        {"msg.make_ns", d.make_ns, "ns"},
        {"state.txn_rmw_ns", d.txn_rmw_ns, "ns"},
        {"apps.handler_ns", d.handler_ns, "ns"},
        {"ledger.unattributed_pct",
         unattributed_pct(ledger_ns, fixed.cpu_us_per_msg()), "%"},
        {"trace.overhead_pct",
         100.0 * (traced_fixed.cpu_us_per_msg() / fixed.cpu_us_per_msg() - 1.0),
         "%"},
        {"wire_bytes_per_msg",
         traced_fixed.per_msg(static_cast<double>(traced_fixed.bytes)),
         "B/msg"},
    };
    diag.push_back({"ledger.sum_ns", ledger_ns, "ns"});
    diag.push_back({"trace.spans", static_cast<double>(spans->size()), "count"});
    diag.push_back({"trace.spans_dropped",
                    static_cast<double>(spans->dropped()), "count"});
    if (!o.trace_out.empty() && !spans->write(o.trace_out)) {
      errors.push_back("cannot write spans to " + o.trace_out);
    }
  }

  print_table(o.workload, "e2e", e2e);
  print_table(o.workload, "diag", diag);
  if (o.trace) print_table(o.workload, "layer", layers);
  for (const std::string& e : errors) {
    std::printf("%s CHECK FAILED: %s\n", o.workload.c_str(), e.c_str());
  }
  const bool correct = errors.empty();
  std::printf("%s\n",
              result_json(correct, attempted, failed, o.trace ? layers : e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: beebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  return perfbench::run(o);
}
