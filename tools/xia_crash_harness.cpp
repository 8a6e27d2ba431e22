// kill -9 crash harness for the WAL.
//
// For every (crash kind, seed) pair the harness forks a writer child that
// runs a deterministic mutation sequence — inserts, deletes, updates,
// index DDL, stats refreshes, periodic checkpoints — against a WAL-backed
// data directory, appending one ack byte to a side file after each
// committed operation. The child kills *itself* with kill -9 at a
// scheduled crash point:
//
//   op-boundary               between two operations
//   wal.append.mid_write      half-way through writing a log frame
//   wal.append.before_fsync   bytes written, fsync pending
//   checkpoint.after_snapshot new snapshot on disk, old manifest current
//   checkpoint.after_manifest new manifest committed, log not yet reset
//   checkpoint.after_reset    log reset, stale files not yet deleted
//
// The parent then recovers the directory under a 5-second Deadline and
// checks *prefix consistency*: the recovered state must byte-equal the
// reference state after K operations for some K >= the number of acked
// operations (an acked op is durable; a crashed-mid-commit op may or may
// not survive). The reference states come from replaying the identical
// sequence in memory with no WAL. Both sequences run through the same
// xia::Database calls as the server and the shell. Exit 0 iff every run
// passes.
//
// Usage: xia_crash_harness [--seeds N] [--ops N] [--kind NAME]

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "harness.h"
#include "engine/query_parser.h"
#include "fault/deadline.h"
#include "util/random.h"
#include "util/status.h"
#include "xpath/parser.h"

namespace xia {
namespace {

namespace fs = std::filesystem;

struct Op {
  enum Kind {
    kStatement,     // insert / delete / update text
    kCreateIndex,
    kDropIndex,
    kStatsRefresh,
    kCheckpoint,
  } kind = kStatement;
  std::string text;          // kStatement
  std::string index_name;    // kCreateIndex / kDropIndex
  std::string pattern_text;  // kCreateIndex
};

constexpr const char* kCollection = "CRASH";

/// The deterministic op sequence for one seed. Op 0 (create collection)
/// is implicit; these are ops 1..n.
std::vector<Op> GenOps(uint64_t seed, int count) {
  Random rng(seed);
  std::vector<Op> ops;
  std::vector<std::string> live_indexes;
  const std::vector<std::string> patterns = {"/doc/k", "/doc/g", "/doc//k"};
  int next_index_id = 0;
  for (int i = 0; i < count; ++i) {
    Op op;
    const uint64_t roll = rng.Uniform(100);
    if (i % 9 == 8) {
      // Periodic checkpoint, so every checkpoint crash window is reachable.
      op.kind = Op::kCheckpoint;
    } else if (roll < 50) {
      op.kind = Op::kStatement;
      op.text = "insert into " + std::string(kCollection) + " <doc><k>" +
                std::to_string(rng.Uniform(50)) + "</k><g>" +
                std::to_string(rng.Uniform(5)) + "</g></doc>";
    } else if (roll < 62) {
      op.kind = Op::kStatement;
      op.text = "delete from " + std::string(kCollection) + " where /doc[k = " +
                std::to_string(rng.Uniform(50)) + "]";
    } else if (roll < 74) {
      op.kind = Op::kStatement;
      op.text = "update " + std::string(kCollection) + " set /doc/g = " +
                std::to_string(rng.Uniform(9)) + " where /doc[k = " +
                std::to_string(rng.Uniform(50)) + "]";
    } else if (roll < 84) {
      op.kind = Op::kCreateIndex;
      op.index_name = "idx" + std::to_string(next_index_id++);
      op.pattern_text = patterns[rng.Uniform(patterns.size())];
      live_indexes.push_back(op.index_name);
    } else if (roll < 90 && !live_indexes.empty()) {
      op.kind = Op::kDropIndex;
      const size_t victim = rng.Uniform(live_indexes.size());
      op.index_name = live_indexes[victim];
      live_indexes.erase(live_indexes.begin() + victim);
    } else {
      op.kind = Op::kStatsRefresh;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Applies one op. A volatile `db` is the reference run.
Status ApplyOp(const Op& op, Database* db) {
  switch (op.kind) {
    case Op::kStatement: {
      XIA_ASSIGN_OR_RETURN(const engine::Statement st,
                           engine::ParseStatement(op.text));
      return db->Run(st).status();
    }
    case Op::kCreateIndex: {
      XIA_ASSIGN_OR_RETURN(const xpath::Path path,
                           xpath::ParsePattern(op.pattern_text));
      return db
          ->CreateIndex({op.index_name, kCollection,
                         xpath::IndexPattern{path, xpath::ValueType::kNumeric}})
          .status();
    }
    case Op::kDropIndex:
      return db->DropIndex(op.index_name);
    case Op::kStatsRefresh:
      return db->RunStats(kCollection);
    case Op::kCheckpoint:
      // Logically a no-op: the reference state does not change.
      if (db->wal() != nullptr) return db->Checkpoint();
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

std::string Digest(Database* db) {
  const Result<std::string> digest = db->Digest();
  return digest.ok() ? *digest : "<error>";
}

/// Runs the whole sequence through `db` — op 0 creates the collection,
/// then ops[0..n) — calling `committed(k)` after op k. The reference run
/// and the crashing child both run it.
Status RunOps(Database* db, const std::vector<Op>& ops,
              const std::function<void(size_t)>& committed) {
  XIA_RETURN_IF_ERROR(db->CreateCollection(kCollection));
  committed(0);
  for (size_t i = 0; i < ops.size(); ++i) {
    XIA_RETURN_IF_ERROR(ApplyOp(ops[i], db));
    committed(i + 1);
  }
  return Status::OK();
}

/// Reference digests: digests[0] = empty db, digests[1] = after the
/// create-collection op, digests[1 + k] = after ops[0..k].
std::vector<std::string> ReferenceDigests(const std::vector<Op>& ops) {
  Database db;
  std::vector<std::string> digests{Digest(&db)};
  const Status s =
      RunOps(&db, ops, [&](size_t) { digests.push_back(Digest(&db)); });
  if (!s.ok()) {
    std::fprintf(stderr, "reference apply failed: %s\n",
                 s.ToString().c_str());
  }
  return digests;
}

/// Fired by the child itself after each acked op past the create.
constexpr const char* kOpBoundary = "op.boundary";

/// Crash points and their windows for an `op_count`-op sequence: one op
/// in nine is a checkpoint, the others append to the log.
std::vector<harness::CrashKind> CrashKinds(int op_count) {
  const int checkpoints = op_count / 9;
  const int appends = op_count - checkpoints;
  return {
      {"op-boundary", kOpBoundary, op_count},
      {"append-mid-write", "wal.append.mid_write", appends},
      {"append-before-fsync", "wal.append.before_fsync", appends},
      {"checkpoint-after-snapshot", "checkpoint.after_snapshot", checkpoints},
      {"checkpoint-after-manifest", "checkpoint.after_manifest", checkpoints},
      {"checkpoint-after-reset", "checkpoint.after_reset", checkpoints},
  };
}

/// Child body: run the sequence, acking each committed op, until the
/// scheduled kill. Never returns on the crash path.
void RunChild(const std::string& dir, const std::vector<Op>& ops,
              const harness::CrashKind& kind, uint64_t seed) {
  const int ack_fd =
      ::open((dir + "/ack").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) _exit(3);
  const wal::WalTestHook hook =
      harness::KillHook(kind.hook_point, harness::Countdown(kind, seed));
  Database db(DatabaseOptions{dir + "/data", "always", hook});
  if (!db.Open().ok()) _exit(4);
  const Status ran = RunOps(&db, ops, [&](size_t k) {
    (void)!::write(ack_fd, "a", 1);
    if (k > 0) hook(kOpBoundary);
  });
  if (!ran.ok()) _exit(6);
  // The crash point was never reached (possible for large countdowns);
  // a completed run is still a valid recovery case.
  (void)db.wal()->Close();
  _exit(42);
}

bool RunOne(const harness::CrashKind& kind, uint64_t seed, int op_count,
            const std::string& dir, bool* killed) {
  const std::vector<Op> ops = GenOps(seed, op_count);
  const harness::Fate fate = harness::Reap(
      harness::Fork([&] { RunChild(dir, ops, kind, seed); }), "writer child");
  if (fate == harness::Fate::kOther) return false;
  *killed = fate == harness::Fate::kKilled;

  const std::string ack_path = dir + "/ack";
  std::error_code ec;
  const uint64_t acked = fs::exists(ack_path)
                             ? static_cast<uint64_t>(fs::file_size(ack_path, ec))
                             : 0;

  // Recover in-process, Deadline-bounded (the acceptance criterion).
  Database db(DatabaseOptions{dir + "/data", "", {}});
  const Status opened = db.Open(fault::Deadline::AfterSeconds(5));
  if (!opened.ok()) {
    std::fprintf(stderr, "  recovery failed: %s\n", opened.ToString().c_str());
    return false;
  }
  const wal::RecoveryReport& report = db.recovery();

  const std::string recovered = Digest(&db);
  const std::vector<std::string> reference = ReferenceDigests(ops);
  // Largest matching prefix length (checkpoints and no-op deletes leave
  // the digest unchanged, so match from the top).
  int matched = -1;
  for (int k = static_cast<int>(reference.size()) - 1; k >= 0; --k) {
    if (reference[static_cast<size_t>(k)] == recovered) {
      matched = k;
      break;
    }
  }
  if (matched < 0) {
    std::fprintf(stderr,
                 "  recovered state matches no reference prefix "
                 "(acked=%llu, %s)\n",
                 static_cast<unsigned long long>(acked),
                 report.ToString().c_str());
    return false;
  }
  if (static_cast<uint64_t>(matched) < acked) {
    std::fprintf(stderr,
                 "  recovered only %d ops but %llu were acked "
                 "(durability violation; %s)\n",
                 matched, static_cast<unsigned long long>(acked),
                 report.ToString().c_str());
    return false;
  }
  (void)db.wal()->Close();
  return true;
}

}  // namespace
}  // namespace xia

int main(int argc, char** argv) {
  int ops = 40;
  const std::optional<xia::harness::Args> args =
      xia::harness::ParseArgs(argc, argv, 20, {{"--ops", &ops, 9}});
  if (!args) return 2;
  return xia::harness::Drive(
      "xia_crash_harness", *args, xia::CrashKinds(ops),
      [ops](const xia::harness::CrashKind& kind, uint64_t seed,
            const std::string& dir, bool* killed) {
        return xia::RunOne(kind, seed, ops, dir, killed);
      });
}
