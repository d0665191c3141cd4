#ifndef SNETSAC_SNET_INTERIOR_HPP
#define SNETSAC_SNET_INTERIOR_HPP

/// \file interior.hpp
/// Records held *inside* a network: a det collector's groups waiting for
/// their turn, a synchrocell's stored contributions. Both hold through
/// one path, so the per-session cap (Options::det_capacity), its overflow
/// policy, the disk spill and the in-memory gauge are decided in one
/// place.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>

#include "snet/session.hpp"
#include "snet/wire.hpp"

namespace snet {

struct Options;

/// A held record: in memory, or parked in the network's spill file.
using Held = std::variant<Record, wire::SpillFrame>;

class Interior {
 public:
  Interior(const Options& opts, SessionTable& sessions);

  /// Takes \p r into interior buffering on behalf of \p who. Drops it —
  /// returns nullopt, leaving the consume accounting of the quantum to
  /// retire it — when its session was failed or released, and when the
  /// session is over the cap under FailFast (which fails the session).
  /// Otherwise the record stays counted live and in its det groups, is
  /// charged to its session's interior account, and comes back in memory
  /// or, over the cap under Spill, as a spill frame (the session's input
  /// dispatch is throttled until the account drains).
  std::optional<Held> hold(Record r, const Entity& who);
  /// Gives back a held record (restored from disk if need be) and
  /// releases its interior charge, un-throttling its session at the
  /// watermark. Its live count and det stamps stay with it.
  Record take(Held& held);

  /// With det_capacity > 0: Σ over sessions of the interior account ==
  /// records held in memory + records on disk, and no account is
  /// negative. Safe points only.
  void check() const;
  /// det_buffered{,_peak} and the spill store's counters.
  void stats(NetworkStats& out) const;

 private:
  /// Releases one interior charge of \p s; un-throttles the session once
  /// it drains below the watermark.
  void release(SessionState* s);
  /// Un-throttles \p s if its account is at or below the watermark.
  void unthrottle_if_drained(SessionState* s, std::int64_t account);

  SessionTable& sessions_;
  /// Options::det_capacity (0 = no cap and no accounts).
  const std::size_t cap_;
  const bool fail_fast_;
  /// Created when the Spill policy may engage (spill_to_disk && a cap);
  /// the file itself is lazy. Null: overflow stays in memory.
  std::unique_ptr<wire::SpillStore> store_;
  /// Records held in memory (disk-spilled ones excluded) and the peak.
  PeakGauge buffered_;
};

}  // namespace snet

#endif
