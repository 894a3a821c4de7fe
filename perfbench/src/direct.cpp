// Direct layer probes: each layer's public call, timed outside the cluster
// on the workload's own message, cell and key set.
#include "bench.h"
#include "cluster/registry.h"
#include "core/context.h"
#include "core/wire.h"
#include "state/store.h"

namespace perfbench {

using namespace beehive;

namespace {

/// Median over 5 rounds of the mean ns per call of `f`, with the round
/// size chosen so that one round takes about 10 ms.
template <typename F>
double per_call_ns(F&& f) {
  std::size_t n = 64;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) f();
    const std::int64_t dt = now_ns() - t0;
    if (dt > 2'000'000 || n >= (1u << 24)) {
      n = std::max<std::size_t>(16, n * 10'000'000 / std::max<std::int64_t>(dt, 1));
      break;
    }
    n *= 4;
  }
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) f();
    rounds.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(n));
  }
  return median(rounds);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

}  // namespace

DirectResult measure_direct(const DirectSpec& spec, SpanLog* spans) {
  DirectResult r;
  const MessageEnvelope& in = *spec.ingress;
  const HandlerBinding* binding = spec.app->binding_for(in.type());
  const std::int64_t t_start = now_ns();

  r.map_ns = per_call_ns([&] {
    CellSet cells = binding->map(in);
    keep(cells);
  });

  ByteWriter w;
  r.encode_ns = per_call_ns([&] {
    w.clear();
    spec.encode(w);
    keep(w);
  });
  const Bytes encoded = w.bytes();
  r.decode_ns = per_call_ns([&] { spec.decode(encoded); });
  r.make_ns = per_call_ns([&] {
    MessageEnvelope env = spec.make_emitted();
    keep(env);
  });

  // The hive's remote path for the message that crosses hives: app frame
  // header + envelope, serialized into reusable writers, then decoded in
  // place as Hive::handle_app_msg does.
  const MessageEnvelope crossing = spec.make_emitted();
  ByteWriter frame, env_scratch, payload_scratch;
  r.wire_ns = per_call_ns([&] {
    frame.clear();
    env_scratch.clear();
    frame.u8(static_cast<std::uint8_t>(FrameKind::kAppMsg));
    frame.u64(42);
    frame.u32(spec.app->id());
    frame.varint(0);
    crossing.encode_to(env_scratch, payload_scratch);
    frame.str(env_scratch.bytes());
    ByteReader rd(frame.bytes());
    rd.u8();
    rd.u64();
    rd.u32();
    rd.varint();
    const std::uint64_t len = rd.varint();
    MessageEnvelope env = MessageEnvelope::from_wire(rd.view(len));
    keep(env);
  });

  // Registry: a second client creates every bee, so this client's first
  // pass misses its cache and asks the service; later passes hit.
  {
    RegistryService svc(kHives, nullptr);
    RegistryService::Client owner(svc, 1), client(svc, 0);
    const AppId app = spec.app->id();
    for (const CellSet& cells : spec.resolve_cells) {
      owner.resolve_or_create(app, cells, false, 0);
    }
    const std::int64_t t0 = now_ns();
    for (const CellSet& cells : spec.resolve_cells) {
      keep(client.resolve_or_create(app, cells, false, 0));
    }
    r.resolve_miss_ns = static_cast<double>(now_ns() - t0) /
                        static_cast<double>(spec.resolve_cells.size());
    std::size_t i = 0;
    r.resolve_hit_ns = per_call_ns([&] {
      keep(client.resolve_or_create(app, spec.resolve_cells[i], false, 0));
      i = (i + 1) % spec.resolve_cells.size();
    });
  }

  // State and handler, on a private store holding the workload's cell.
  // Each call is followed by restoring the cell, timed separately and
  // subtracted, so every call sees the same steady-state value.
  StateStore store;
  const CellSet cells = CellSet::single(spec.dict, spec.key);
  const AccessPolicy policy = AccessPolicy::cells(cells);
  auto restore = [&] { store.dict(spec.dict).put(spec.key, spec.value); };
  restore();
  const double restore_ns = per_call_ns(restore);
  r.txn_rmw_ns = per_call_ns([&] {
    Txn txn(store, &policy);
    spec.rmw(txn);
    txn.commit();
    restore();
  }) - restore_ns;
  r.handler_ns = per_call_ns([&] {
    AppContext ctx(store, &policy, spec.app->id(), 1, 0, 0, in.type());
    binding->handle(ctx, in);
    ctx.state().commit();
    keep(ctx.emitted());
    restore();
  }) - restore_ns;

  if (spans != nullptr) {
    spans->record(kHives, Span{kSpanDirect, 0, 0, t_start, now_ns(), 0});
  }
  return r;
}

}  // namespace perfbench
