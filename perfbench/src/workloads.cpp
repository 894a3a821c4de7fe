// The three workloads (why each exists: perfbench/README.md) and the
// shared pieces they use: sample slots, span log, set-up injection.
#include <cstdio>
#include <fstream>
#include <thread>

#include "apps/learning_switch.h"
#include "apps/messages.h"
#include "apps/te_decoupled.h"
#include "bench.h"
#include "core/context.h"
#include "util/rng.h"

namespace perfbench {

using namespace beehive;

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

SpanLog::SpanLog() {
  for (auto& b : buf_) b.resize(kPerThread);
}

std::uint32_t SpanLog::record(std::size_t thread, Span span) {
  const std::uint64_t i = used_[thread].get();
  if (i >= kPerThread) {
    dropped_[thread].bump();
    return 0;
  }
  span.thread = static_cast<std::uint16_t>(thread);
  buf_[thread][i] = span;
  used_[thread].bump();
  return static_cast<std::uint32_t>(thread << 24 | (i + 1));
}

std::uint64_t SpanLog::dropped() const {
  std::uint64_t n = 0;
  for (const auto& d : dropped_) n += d.get();
  return n;
}

std::size_t SpanLog::size() const {
  std::size_t n = 0;
  for (const auto& u : used_) n += u.get();
  return n;
}

bool SpanLog::write(const std::string& path) const {
  static constexpr const char* kNames[] = {"",          "gen.post",
                                           "hive.ingress", "core.inject_batch",
                                           "app.sink",  "direct"};
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < used_[t].get(); ++i) {
      const Span& s = buf_[t][i];
      out << "{\"id\":" << (t << 24 | (i + 1)) << ",\"name\":\""
          << kNames[s.name] << "\",\"thread\":" << s.thread
          << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"event\":" << s.event << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void Shared::reset(std::size_t n_samples) {
  for (std::size_t h = 0; h < kHives; ++h) {
    done[h].v.store(0);
    bad[h].v.store(0);
    aux[h].v.store(0);
    inject_ns[h].v.store(0);
    inject_msgs[h].v.store(0);
  }
  std::vector<KeySample> fresh(n_samples);
  samples.swap(fresh);
}

void Shared::complete_sample(HiveId hive, std::size_t key, std::uint32_t seq) {
  KeySample& s = samples[key];
  if (s.seq.load(std::memory_order_acquire) != seq) return;
  const std::int64_t now = now_ns();
  latency[hive].record(now - s.due.load(std::memory_order_relaxed));
  if (traced.load(std::memory_order_relaxed)) {
    hop[hive].record(now - s.ingress_end.load(std::memory_order_relaxed));
    if (spans != nullptr) {
      spans->record(hive, Span{kSpanSink, 0,
                               s.ingress_span.load(std::memory_order_relaxed),
                               now, now,
                               static_cast<std::uint64_t>(key) << 32 | seq});
    }
  }
  s.seq.store(KeySample::kNone, std::memory_order_release);
}

/// Stamps sample slot `key` for completion ordinal `seq` unless an earlier
/// sample there is still in flight.
static bool stamp(Shared& sh, std::size_t key, std::uint32_t seq,
                  std::int64_t due) {
  KeySample& s = sh.samples[key];
  if (s.seq.load(std::memory_order_acquire) != KeySample::kNone) return false;
  s.due.store(due, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
  return true;
}

void inject_all(ThreadCluster& cluster,
                const std::vector<std::pair<HiveId, MessageEnvelope>>& msgs) {
  constexpr std::size_t kChunk = 256;
  std::array<std::vector<MessageEnvelope>, kHives> pending;
  auto flush = [&](HiveId h) {
    if (pending[h].empty()) return;
    auto batch = std::make_shared<std::vector<MessageEnvelope>>(
        std::move(pending[h]));
    pending[h].clear();
    Hive* hive = &cluster.hive(h);
    cluster.post(h, [hive, batch] { hive->inject_batch(*batch); });
  };
  for (const auto& [h, env] : msgs) {
    pending[h].push_back(env);
    if (pending[h].size() == kChunk) flush(h);
  }
  for (HiveId h = 0; h < kHives; ++h) flush(h);
}

bool wait_until(const std::function<bool()>& done, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  // Spinning rather than sleeping keeps a few-millisecond set-up from
  // being rounded up to the scheduler's wake-up; polling no more often
  // than every 10 us keeps the reads off the counters' cache lines.
  while (!done()) {
    const std::int64_t next = now_ns() + 10'000;
    if (next > deadline) return false;
    while (now_ns() < next) std::this_thread::yield();
  }
  return true;
}

static std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename T, typename Cell>
DirectSpec codec_spec(const T& body, std::string dict, std::string key) {
  DirectSpec spec;
  spec.rmw = [dict, key](Txn& txn) {
    Cell cell = txn.get_as<Cell>(dict, key).value_or(Cell{});
    txn.put_as(dict, key, cell);
  };
  spec.dict = std::move(dict);
  spec.key = std::move(key);
  spec.encode = [body](ByteWriter& w) { body.encode(w); };
  spec.decode = [](std::string_view bytes) {
    ByteReader r(bytes);
    volatile auto sink = T::decode(r);
    (void)sink;
  };
  return spec;
}

namespace {

// ---------------------------------------------------------------------------
// kandoo_local: the real LearningSwitchApp, one bee per switch on the
// switch's own hive; a sink bee per switch checks each PacketOut.
// ---------------------------------------------------------------------------

class KandooLocal;

class PacketSink : public App {
 public:
  static constexpr std::string_view kDict = "bench.pkt_sink";
  explicit PacketSink(KandooLocal* w);
};

class KandooLocal final : public Workload {
 public:
  static constexpr std::size_t kSwitches = 8192;
  static constexpr std::size_t kHosts = 4;  ///< hosts (MACs) per switch

  std::string_view name() const override { return "kandoo_local"; }

  void prepare(std::uint64_t seed) override {
    apps_.emplace<LearningSwitchApp>();
    apps_.emplace<PacketSink>(this);
    hosts_.resize(kSwitches * kHosts);
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      hosts_[i] = mix(seed ^ (i << 8)) & 0xffffffffffffull;
    }
    envs_.reserve(kSwitches * kHosts);
    for (std::size_t s = 0; s < kSwitches; ++s) {
      for (std::size_t j = 0; j < kHosts; ++j) {
        envs_.push_back(MessageEnvelope::make(
            PacketIn{sw_id(s), host(s, j), host(s, (j + 1) % kHosts),
                     static_cast<std::uint16_t>(j + 1)}));
      }
    }
    rng_ = std::make_unique<Xoshiro256>(seed);
  }
  const AppSet& apps() const override { return apps_; }

  void reset() override {
    shared_.reset(kSwitches);
    sent_.assign(kSwitches, 0);
    seen_.assign(kSwitches, 0);
  }

  bool deploy(ThreadCluster& cluster) override {
    std::vector<std::pair<HiveId, MessageEnvelope>> msgs;
    msgs.reserve(kSwitches);
    for (std::size_t s = 0; s < kSwitches; ++s) {
      msgs.emplace_back(hive_of(s), *take(s));
    }
    inject_all(cluster, msgs);
    return wait_until([&] { return shared_.completed() == kSwitches; }, 60);
  }

  Event next(bool sample, std::int64_t due) override {
    const std::size_t s = rng_->next_below(kSwitches);
    Event e;
    e.hive = hive_of(s);
    const std::uint32_t seq = sent_[s];
    e.env = take(s);
    if (sample && stamp(shared_, s, seq, due)) {
      e.stamped[e.n_stamped++] = static_cast<std::uint32_t>(s);
    }
    return e;
  }

  double fixed_rate() const override { return 60000; }
  std::uint64_t window() const override { return 1024; }  // 1 emission each

  void check(ThreadCluster&, std::vector<std::string>& errors) override {
    std::uint64_t in = 0, out = 0;
    for (std::size_t s = 0; s < kSwitches; ++s) {
      in += sent_[s];
      out += seen_[s];
    }
    if (in != out) {
      errors.push_back("PacketOut count " + std::to_string(out) +
                       " != PacketIn count " + std::to_string(in));
    }
    const std::uint64_t bad = shared_.bad[0].get() + shared_.bad[1].get();
    if (bad != 0) {
      errors.push_back(std::to_string(bad) +
                       " PacketOuts out of per-switch FIFO order or with a "
                       "wrong port");
    }
  }

  DirectSpec direct_spec() const override {
    const MessageEnvelope& in = envs_[4 * kHosts + 1];
    const PacketIn& m = in.as<PacketIn>();
    DirectSpec spec = codec_spec<PacketIn, MacTable>(
        m, std::string(LearningSwitchApp::kDict), switch_key(m.sw));
    spec.app = apps_.find_by_name("learning_switch");
    spec.ingress = &in;
    spec.make_emitted = [m] {
      return MessageEnvelope::make(PacketOut{m.sw, m.dst_mac, 2});
    };
    MacTable table;
    for (std::size_t j = 0; j < kHosts; ++j) {
      table.learn(host(4, j), static_cast<std::uint16_t>(j + 1));
    }
    spec.value = encode_to_bytes(table);
    for (std::size_t s = 0; s < 1024; ++s) {
      spec.resolve_cells.push_back(CellSet::single(
          std::string(LearningSwitchApp::kDict), switch_key(sw_id(s))));
    }
    return spec;
  }

  std::vector<LedgerTerm> ledger(const DirectResult& d,
                                 double inject_ns) const override {
    // The PacketOut hop: map and resolve toward the sink.
    return {{"core.inject_ns_per_msg", inject_ns, 1},
            {"core.map_ns", d.map_ns, 1},
            {"cluster.resolve_hit_ns", d.resolve_hit_ns, 1}};
  }
  bool remote_route() const override { return false; }
  std::size_t bees() const override { return 2 * kSwitches; }

  // Sink side (runs on the switch's hive, in the switch's sink bee).
  void on_packet_out(HiveId hive, const PacketOut& m) {
    const std::size_t s = m.sw - 1;
    const std::uint32_t c = seen_[s]++;
    const std::size_t j = c % kHosts;
    const std::size_t dst = (j + 1) % kHosts;
    const std::uint16_t port =
        c + 1 >= kHosts ? static_cast<std::uint16_t>(dst + 1) : kFloodPort;
    if (m.dst_mac != host(s, dst) || m.out_port != port) shared_.bad[hive].bump();
    shared_.complete_sample(hive, s, c);
    shared_.done[hive].bump();
  }

 private:
  static SwitchId sw_id(std::size_t s) { return static_cast<SwitchId>(s + 1); }
  static HiveId hive_of(std::size_t s) { return static_cast<HiveId>(s % kHives); }
  std::uint64_t host(std::size_t s, std::size_t j) const {
    return hosts_[s * kHosts + j];
  }
  const MessageEnvelope* take(std::size_t s) {
    return &envs_[s * kHosts + sent_[s]++ % kHosts];
  }

  AppSet apps_;
  std::vector<std::uint64_t> hosts_;
  std::vector<MessageEnvelope> envs_;
  std::unique_ptr<Xoshiro256> rng_;
  std::vector<std::uint32_t> sent_;  ///< generator: PacketIns per switch
  std::vector<std::uint32_t> seen_;  ///< sinks: PacketOuts per switch
};

PacketSink::PacketSink(KandooLocal* w) : App("bench.pkt_sink") {
  register_app_messages();
  const std::string dict(kDict);
  on<PacketOut>(
      [dict](const PacketOut& m) {
        return CellSet::single(dict, switch_key(m.sw));
      },
      [w](AppContext& ctx, const PacketOut& m) {
        w->on_packet_out(ctx.hive(), m);
      });
}

// ---------------------------------------------------------------------------
// cross_hive: a probe app with a tiny counter cell per key; every key's bee
// is placed on hive 1 and every event enters at hive 0.
// ---------------------------------------------------------------------------

struct Probe {
  static constexpr std::string_view kTypeName = "bench.probe";
  std::uint32_t key = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  void encode(ByteWriter& w) const {
    w.u32(key);
    w.u64(a);
    w.u64(b);
  }
  static Probe decode(ByteReader& r) {
    Probe p;
    p.key = r.u32();
    p.a = r.u64();
    p.b = r.u64();
    return p;
  }
};

struct ProbeCount {
  static constexpr std::string_view kTypeName = "bench.probe_count";
  std::uint64_t n = 0;
  void encode(ByteWriter& w) const { w.varint(n); }
  static ProbeCount decode(ByteReader& r) { return {r.varint()}; }
};

class CrossHive;

class ProbeApp : public App {
 public:
  static constexpr std::string_view kDict = "bench.probe";
  explicit ProbeApp(CrossHive* w);
};

class CrossHive final : public Workload {
 public:
  static constexpr std::size_t kKeys = 256;
  static constexpr HiveId kIngress = 0;
  static constexpr HiveId kOwner = 1;

  std::string_view name() const override { return "cross_hive"; }

  void prepare(std::uint64_t seed) override {
    apps_.emplace<ProbeApp>(this);
    for (std::size_t k = 0; k < kKeys; ++k) {
      keys_.push_back(std::to_string(mix(seed + k) % 1000000007));
      envs_.push_back(MessageEnvelope::make(Probe{
          static_cast<std::uint32_t>(k), mix(seed ^ k), mix(seed + 2 * k)}));
    }
    rng_ = std::make_unique<Xoshiro256>(seed);
  }
  const AppSet& apps() const override { return apps_; }

  void reset() override {
    shared_.reset(kKeys);
    sent_.assign(kKeys, 0);
    seen_.assign(kKeys, 0);
  }

  void configure(ThreadCluster& cluster) override {
    const AppId probe = apps_.find_by_name("bench.probe")->id();
    cluster.registry().set_placement_hook(
        [probe](AppId app, const CellSet&, HiveId requester) {
          return app == probe ? kOwner : requester;
        });
  }

  bool deploy(ThreadCluster& cluster) override {
    std::vector<std::pair<HiveId, MessageEnvelope>> msgs;
    for (std::size_t k = 0; k < kKeys; ++k) {
      ++sent_[k];
      msgs.emplace_back(kIngress, envs_[k]);
    }
    inject_all(cluster, msgs);
    return wait_until([&] { return shared_.completed() == kKeys; }, 60);
  }

  Event next(bool sample, std::int64_t due) override {
    const std::size_t k = rng_->next_below(kKeys);
    Event e;
    e.hive = kIngress;
    e.env = &envs_[k];
    const std::uint32_t seq = sent_[k]++;
    if (sample && stamp(shared_, k, seq, due)) {
      e.stamped[e.n_stamped++] = static_cast<std::uint32_t>(k);
    }
    return e;
  }

  double fixed_rate() const override { return 100000; }
  std::uint64_t window() const override { return 4096; }  // ~1 frame per turn

  void check(ThreadCluster& cluster,
             std::vector<std::string>& errors) override {
    std::uint64_t sent = 0;
    for (std::uint32_t n : sent_) sent += n;
    std::uint64_t counted = 0;
    for (HiveId h = 0; h < kHives; ++h) {
      for (Bee* bee : cluster.hive(h).local_bees()) {
        const Dict* d = bee->store().find_dict(ProbeApp::kDict);
        if (d == nullptr) continue;
        if (h != kOwner) {
          errors.push_back("probe bee found on hive " + std::to_string(h));
        }
        d->for_each([&](const std::string&, const Bytes& v) {
          counted += decode_from_bytes<ProbeCount>(v).n;
        });
      }
    }
    if (counted != sent) {
      errors.push_back("probe counters sum " + std::to_string(counted) +
                       " != events sent " + std::to_string(sent));
    }
  }

  DirectSpec direct_spec() const override {
    const Probe& p = envs_[3].as<Probe>();
    DirectSpec spec = codec_spec<Probe, ProbeCount>(
        p, std::string(ProbeApp::kDict), keys_[3]);
    spec.app = apps_.find_by_name("bench.probe");
    spec.ingress = &envs_[3];
    spec.make_emitted = [p] { return MessageEnvelope::make(p); };
    spec.value = encode_to_bytes(ProbeCount{123456});
    for (std::size_t k = 0; k < kKeys; ++k) {
      spec.resolve_cells.push_back(
          CellSet::single(std::string(ProbeApp::kDict), keys_[k]));
    }
    return spec;
  }

  std::vector<LedgerTerm> ledger(const DirectResult& d,
                                 double inject_ns) const override {
    // Owner hive: the frame's decode (wire_ns also counts its encode,
    // which inject_ns already holds: half of it) and the probe handler.
    return {{"core.inject_ns_per_msg", inject_ns, 1},
            {"core.wire_ns", d.wire_ns, 0.5},
            {"apps.handler_ns", d.handler_ns, 1}};
  }
  bool remote_route() const override { return true; }
  std::size_t bees() const override { return kKeys; }

  const std::string& key_of(std::uint32_t k) const { return keys_[k]; }
  void on_probe(HiveId hive, const Probe& p) {
    const std::uint32_t c = seen_[p.key]++;
    shared_.complete_sample(hive, p.key, c);
    shared_.done[hive].bump();
  }

 private:
  AppSet apps_;
  std::vector<std::string> keys_;
  std::vector<MessageEnvelope> envs_;
  std::unique_ptr<Xoshiro256> rng_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> seen_;
};

ProbeApp::ProbeApp(CrossHive* w) : App("bench.probe") {
  const std::string dict(kDict);
  on<Probe>(
      [dict, w](const Probe& p) {
        return CellSet::single(dict, w->key_of(p.key));
      },
      [dict, w](AppContext& ctx, const Probe& p) {
        const std::string& key = w->key_of(p.key);
        ProbeCount count =
            ctx.state().get_as<ProbeCount>(dict, key).value_or(ProbeCount{});
        count.n += 1;
        ctx.state().put_as(dict, key, count);
        w->on_probe(ctx.hive(), p);
      });
}

// ---------------------------------------------------------------------------
// te_decoupled: the real TEDecoupledApp over 400 switches x 100 flows; a
// FlowMod sink per switch at the switch's hive.
// ---------------------------------------------------------------------------

class TeDecoupled;

class FlowModSink : public App {
 public:
  static constexpr std::string_view kDict = "bench.fm_sink";
  explicit FlowModSink(TeDecoupled* w);
};

class TeDecoupled final : public Workload {
 public:
  static constexpr std::size_t kSwitches = 400;
  static constexpr std::size_t kFlows = 100;
  static constexpr std::size_t kPhases = 8;     ///< reply variants per switch
  static constexpr std::size_t kCycling = 3;    ///< flows crossing per reply
  static constexpr std::size_t kRing = 4;       ///< sample slots per flow
  static constexpr std::uint32_t kSetupFlow = kFlows;  ///< deploy-only FlowMods
  static constexpr HiveId kRouteHive = 0;

  std::string_view name() const override { return "te_decoupled"; }

  void prepare(std::uint64_t seed) override {
    apps_.emplace<TEDecoupledApp>(config_);
    apps_.emplace<FlowModSink>(this);
    // Each phase p has kCycling flows whose rate rises above delta at p and
    // falls below the clear mark 4 phases later; the rest stay quiet,
    // some inside the hysteresis band. Every reply therefore crosses the
    // threshold for kCycling flows once the first cycle has passed.
    Xoshiro256 rng(seed);
    const double delta = config_.delta_kbps;
    envs_.reserve(kSwitches * kPhases);
    for (std::size_t s = 0; s < kSwitches; ++s) {
      std::vector<int> rise(kFlows, -1);
      for (std::size_t p = 0; p < kPhases; ++p) {
        for (std::size_t c = 0; c < kCycling; ++c) {
          std::size_t f;
          do {
            f = rng.next_below(kFlows);
          } while (rise[f] >= 0);
          rise[f] = static_cast<int>(p);
        }
      }
      std::vector<double> quiet(kFlows);
      for (std::size_t f = 0; f < kFlows; ++f) {
        quiet[f] = delta * (0.05 + 0.9 * rng.next_double());
      }
      for (std::size_t p = 0; p < kPhases; ++p) {
        FlowStatReply reply;
        reply.sw = sw_id(s);
        for (std::size_t f = 0; f < kFlows; ++f) {
          double rate = quiet[f];
          if (rise[f] >= 0) {
            const std::size_t age =
                (p + kPhases - static_cast<std::size_t>(rise[f])) % kPhases;
            rate = age < kPhases / 2
                       ? delta * (1.05 + 0.5 * rng.next_double())
                       : delta * (0.1 + 0.6 * rng.next_double());
          }
          reply.stats.push_back(FlowStat{static_cast<std::uint32_t>(f), rate,
                                         rng.next() >> 20});
        }
        envs_.push_back(MessageEnvelope::make(std::move(reply)));
      }
    }
    for (std::size_t s = 0; s < kSwitches; ++s) {
      joins_.push_back(MessageEnvelope::make(
          SwitchJoined{sw_id(s), static_cast<HiveId>(hive_of(s))}));
      sink_deploys_.push_back(
          MessageEnvelope::make(FlowMod{sw_id(s), kSetupFlow, 0}));
    }
    rng_ = std::make_unique<Xoshiro256>(seed ^ 0x7e);
  }
  const AppSet& apps() const override { return apps_; }

  void reset() override {
    shared_.reset(kSwitches * kFlows * kRing);
    sent_.assign(kSwitches, 0);
    alarm_seq_.assign(kSwitches * kFlows, 0);
    fm_seen_.assign(kSwitches * kFlows, 0);
    mirror_ = std::make_unique<TeMirror>(config_, kSwitches, kFlows);
    predicted_ = 0;
    setup_flowmods_ = 0;
  }

  bool deploy(ThreadCluster& cluster) override {
    // Sinks first, each on its switch's hive; then Route's bee on
    // kRouteHive, so that exactly half the switches' alarms cross hives;
    // then every switch's S cell, filled by one reply.
    std::vector<std::pair<HiveId, MessageEnvelope>> msgs;
    for (std::size_t s = 0; s < kSwitches; ++s) {
      msgs.emplace_back(hive_of(s), sink_deploys_[s]);
    }
    setup_flowmods_ = kSwitches;
    inject_all(cluster, msgs);
    if (!wait_until([&] { return settled(); }, 60)) return false;
    setup_flowmods_ += 1;
    inject_all(cluster, {{kRouteHive, MessageEnvelope::make(FlowRateAlarm{
                                          sw_id(0), kSetupFlow, 0.0})}});
    if (!wait_until([&] { return settled(); }, 60)) return false;
    msgs.clear();
    for (std::size_t s = 0; s < kSwitches; ++s) {
      msgs.emplace_back(hive_of(s), joins_[s]);
      msgs.emplace_back(hive_of(s), *take(s, false, 0, nullptr));
    }
    inject_all(cluster, msgs);
    return wait_until([&] { return settled(); }, 60);
  }

  Event next(bool sample, std::int64_t due) override {
    const std::size_t s = rng_->next_below(kSwitches);
    Event e;
    e.hive = hive_of(s);
    e.env = take(s, sample, due, &e);
    return e;
  }

  bool completes_at_ingress() const override { return true; }
  std::uint64_t in_flight() const override {
    return predicted_ + setup_flowmods_ - flowmods();
  }
  double fixed_rate() const override { return 35000; }
  std::uint64_t window() const override { return 1024; }  // replies + alarms

  void check(ThreadCluster&, std::vector<std::string>& errors) override {
    if (!settled()) {
      errors.push_back("FlowMod count " + std::to_string(flowmods()) +
                       " != predicted alarms " + std::to_string(predicted_) +
                       " + " + std::to_string(setup_flowmods_) +
                       " deploy FlowMods");
    }
    const std::uint64_t bad = shared_.bad[0].get() + shared_.bad[1].get();
    if (bad != 0) {
      errors.push_back(std::to_string(bad) + " FlowMods for unknown flows");
    }
  }

  DirectSpec direct_spec() const override {
    const MessageEnvelope& in = envs_[5 * kPhases + 2];
    const FlowStatReply& m = in.as<FlowStatReply>();
    DirectSpec spec = codec_spec<FlowStatReply, FlowSeriesEntry>(
        m, std::string(TEDecoupledApp::kStatsDict), switch_key(m.sw));
    spec.app = apps_.find_by_name("te.decoupled");
    spec.ingress = &in;
    spec.make_emitted = [sw = m.sw] {
      return MessageEnvelope::make(FlowRateAlarm{sw, 7, 1234.5});
    };
    FlowSeriesEntry entry;
    entry.sw = m.sw;
    entry.samples = 1000;
    entry.latest = envs_[5 * kPhases + 1].as<FlowStatReply>().stats;
    for (std::uint32_t f = 0; f < kPhases / 2 * kCycling; ++f) entry.flag(f);
    spec.value = encode_to_bytes(entry);
    for (std::size_t s = 0; s < kSwitches; ++s) {
      spec.resolve_cells.push_back(CellSet::single(
          std::string(TEDecoupledApp::kStatsDict), switch_key(sw_id(s))));
    }
    return spec;
  }

  std::vector<LedgerTerm> ledger(const DirectResult& d,
                                 double inject_ns) const override {
    // Per alarm: map + resolve for Route, the FlowMod's make, map and
    // resolve toward its sink, and one frame on average (alarm out and
    // FlowMod back for half the switches). Route's own handler is not
    // probed and stays unattributed.
    const double a = static_cast<double>(kCycling);
    return {{"core.inject_ns_per_msg", inject_ns, 1},
            {"core.map_ns", d.map_ns, 2 * a},
            {"cluster.resolve_hit_ns", d.resolve_hit_ns, 2 * a},
            {"msg.make_ns", d.make_ns, a},
            {"core.wire_ns", d.wire_ns, a}};
  }
  bool remote_route() const override { return false; }
  std::size_t bees() const override { return 2 * kSwitches + 1; }

  void on_flow_mod(HiveId hive, const FlowMod& m) {
    shared_.aux[hive].bump();
    const std::size_t s = m.sw - 1;
    if (m.flow == kSetupFlow) return;
    if (s >= kSwitches || m.flow >= kFlows) {
      shared_.bad[hive].bump();
      return;
    }
    const std::size_t f = s * kFlows + m.flow;
    const std::uint32_t k = fm_seen_[f]++;
    shared_.complete_sample(hive, f * kRing + k % kRing, k);
  }

 private:
  static SwitchId sw_id(std::size_t s) { return static_cast<SwitchId>(s + 1); }
  static HiveId hive_of(std::size_t s) { return static_cast<HiveId>(s % kHives); }
  std::uint64_t flowmods() const {
    return shared_.aux[0].get() + shared_.aux[1].get();
  }

  /// The next reply for switch s, run through the mirror; stamps its
  /// alarms' sample slots when `sample`.
  const MessageEnvelope* take(std::size_t s, bool sample, std::int64_t due,
                              Event* e) {
    const MessageEnvelope* env = &envs_[s * kPhases + sent_[s]++ % kPhases];
    alarms_.clear();
    predicted_ += mirror_->apply(s, env->as<FlowStatReply>(), &alarms_);
    for (std::uint32_t flow : alarms_) {
      const std::size_t f = s * kFlows + flow;
      const std::uint32_t k = alarm_seq_[f]++;
      if (sample && e != nullptr && e->n_stamped < e->stamped.size() &&
          stamp(shared_, f * kRing + k % kRing, k, due)) {
        e->stamped[e->n_stamped++] = static_cast<std::uint32_t>(f * kRing + k % kRing);
      }
    }
    return env;
  }

  TEConfig config_;
  AppSet apps_;
  std::vector<MessageEnvelope> envs_;
  std::vector<MessageEnvelope> joins_;
  std::vector<MessageEnvelope> sink_deploys_;
  std::unique_ptr<Xoshiro256> rng_;
  std::unique_ptr<TeMirror> mirror_;
  std::vector<std::uint32_t> alarms_;
  std::vector<std::uint32_t> sent_;       ///< replies per switch
  std::vector<std::uint32_t> alarm_seq_;  ///< predicted alarms per flow
  std::vector<std::uint32_t> fm_seen_;    ///< sink: FlowMods per flow
  std::uint64_t predicted_ = 0;
  std::uint64_t setup_flowmods_ = 0;
};

FlowModSink::FlowModSink(TeDecoupled* w) : App("bench.fm_sink") {
  register_app_messages();
  const std::string dict(kDict);
  on<FlowMod>(
      [dict](const FlowMod& m) {
        return CellSet::single(dict, switch_key(m.sw));
      },
      [w](AppContext& ctx, const FlowMod& m) { w->on_flow_mod(ctx.hive(), m); });
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "kandoo_local") return std::make_unique<KandooLocal>();
  if (name == "cross_hive") return std::make_unique<CrossHive>();
  if (name == "te_decoupled") return std::make_unique<TeDecoupled>();
  return nullptr;
}

}  // namespace perfbench
