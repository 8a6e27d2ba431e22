// Shared WAL record application: one function that applies a decoded
// redo record to a store/catalog/statistics triple.
//
// Two callers, one semantics: recovery (WalManager replaying the log
// into its staging store, for Open and TruncateSuffix) and replication
// (the follower applier executing leader-shipped records against the
// live database). Keeping them on the same code path is what makes "a
// follower converges to the leader's store digest" a structural property
// instead of a test hope — there is no second interpretation of a record
// to drift.
//
// Statement records execute under a plain collection-scan plan: replay
// must not depend on the optimizer or on statistics freshness, because
// neither is part of the logged state.

#ifndef XIA_WAL_REPLAY_H_
#define XIA_WAL_REPLAY_H_

#include "fault/deadline.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "wal/record.h"

namespace xia::wal {

/// Applies one record. The caller must hold whatever lock serializes
/// mutations on `store`/`catalog` (recovery owns its staging objects;
/// the follower applier holds the server's exclusive db lock).
Status ApplyRecord(const WalRecord& record, storage::DocumentStore* store,
                   storage::Catalog* catalog,
                   storage::StatisticsCatalog* statistics,
                   const fault::Deadline& deadline = {});

}  // namespace xia::wal

#endif  // XIA_WAL_REPLAY_H_
