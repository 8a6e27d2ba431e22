// Leader side of WAL shipping: RunReplStream turns one server session
// into a replication stream (DESIGN §14, epoch fencing §15).
//
// After a follower's kReplSubscribe frame, the session thread calls
// RunReplStream and never returns to request/response dispatch: the
// function announces the leader's epoch with a kReplHello, then tails
// the leader's WAL (WalManager::ReadTail) and pushes each committed
// record to the follower as a kReplFrame, interleaving kReplSnapshot
// transfers whenever the follower's position predates the checkpoint
// horizon (join, or rejoin after falling behind a checkpoint). Follower
// kReplAck frames are drained opportunistically between batches
// (Socket::WaitReadable) and recorded in the ReplHub.
//
// Epoch fencing: every outbound stream frame carries the leader's
// current epoch in the request_id field. A subscribe whose witnessed
// epoch is HIGHER than the leader's is answered with kFenced and
// dropped — this node was deposed and must not stream stale history.
// An inbound ack stamped with a higher epoch, or the demoted flag
// turning true, likewise ends the stream immediately.
//
// The stream holds NO locks while blocked: ReadTail waits on the WAL's
// own commit signal, and the shared database lock is taken only for the
// duration of reading a checkpoint image's bytes.

#ifndef XIA_REPL_STREAM_H_
#define XIA_REPL_STREAM_H_

#include <atomic>

#include "db/database.h"
#include "net/socket.h"
#include "net/wire.h"
#include "repl/hub.h"
#include "util/status.h"
#include "wal/manager.h"

namespace xia::repl {

/// Everything a stream needs from its server.
struct StreamContext {
  /// The leader's database: its WAL is tailed, and its lock is taken
  /// shared while reading checkpoint files.
  Database* db = nullptr;
  ReplHub* hub = nullptr;
  /// Server shutdown flag; the stream exits promptly once set.
  std::atomic<bool>* stopping = nullptr;
  /// True once this server was demoted to follower (deposed leader);
  /// the stream exits promptly rather than ship post-deposition frames.
  /// Optional — a null pointer means the role can never change.
  std::atomic<bool>* demoted = nullptr;
  /// Crash-harness hook, fired as "repl.stream.mid_send" after each
  /// frame goes out (see WalTestHook). Empty in production.
  wal::WalTestHook test_hook;
};

/// Streams until the follower disconnects (OK), the server stops (OK),
/// or an unrecoverable send/read error occurs (the error). Always
/// reports the disconnect to the hub before returning.
Status RunReplStream(net::Socket* socket,
                     const net::ReplSubscribeRequest& subscribe,
                     const StreamContext& ctx);

}  // namespace xia::repl

#endif  // XIA_REPL_STREAM_H_
