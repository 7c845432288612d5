// Public STM interface.
//
//   stm::atomically([](stm::Tx& tx) { ... });                  // default domain
//   stm::atomically(stm::TxKind::Elastic, [](stm::Tx& tx) {}); // elastic
//   stm::atomically(domain, [](stm::Tx& tx) { ... });          // explicit domain
//
// Transactions retry automatically on conflict with randomized exponential
// backoff. Nested atomically() calls are flattened into the enclosing
// transaction (flat nesting), which is what makes composed operations such
// as the tree `move` (paper §5.4) atomic and deadlock-free. A nested call
// against a *different* domain joins that domain into the enclosing
// transaction (multi-domain commit; see tx.hpp and docs/stm.md) — this is
// how a cross-shard move spans two per-shard clock domains atomically.
//
// The outermost call holds a quiescence bracket (gc::OpGuard) across its
// whole retry loop — every attempt, the final validation and the commit
// hooks — so memory the transaction may still read is never freed under
// it, whichever structures and domains it composes. Reclaimers wait on the
// one process-wide registry (gc/thread_registry.hpp).
#pragma once

#include <type_traits>
#include <utility>

#include "gc/thread_registry.hpp"
#include "stm/config.hpp"
#include "stm/domain.hpp"
#include "stm/field.hpp"
#include "stm/runtime.hpp"
#include "stm/stats.hpp"
#include "stm/tx.hpp"

namespace sftree::stm {

template <typename F>
auto atomically(Domain& d, TxKind kind, F&& fn)
    -> std::invoke_result_t<F&, Tx&> {
  using R = std::invoke_result_t<F&, Tx&>;
  detail::ThreadContext& ctx = detail::context();
  Tx& tx = ctx.acquire();
  if (tx.active()) {
    // Flat nesting: run inline as part of the enclosing transaction,
    // scoped to `d` (joining it if the transaction has not touched it
    // yet). An abort unwinds to the outermost retry loop.
    DomainScope scope(tx, d);
    return fn(tx);
  }
  const gc::OpGuard bracket;
  ThreadStats& stats = ctx.statsFor(d);
  for (;;) {
    tx.begin(d, kind, stats);
    try {
      if constexpr (std::is_void_v<R>) {
        fn(tx);
        tx.commit();
        tx.resetAttempts();
        return;
      } else {
        R result = fn(tx);
        tx.commit();
        tx.resetAttempts();
        return result;
      }
    } catch (TxAbort&) {
      tx.onAbort();
      detail::backoff(tx);
    } catch (...) {
      // A user exception aborts the transaction (speculative state is
      // rolled back, locks released, allocations freed) and propagates.
      tx.onAbort();
      throw;
    }
  }
}

template <typename F>
auto atomically(Domain& d, F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(d, TxKind::Normal, std::forward<F>(fn));
}

template <typename F>
auto atomically(TxKind kind, F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(defaultDomain(), kind, std::forward<F>(fn));
}

template <typename F>
auto atomically(F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(defaultDomain(), TxKind::Normal, std::forward<F>(fn));
}

}  // namespace sftree::stm
