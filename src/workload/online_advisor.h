// xia::workload — continuous online advising.
//
// OnlineAdvisor closes the loop the paper leaves to the DBA: it owns a
// background std::thread that drains the WorkloadCapture sink, folds the
// batch into its Templatizer, and reruns Advisor::Recommend over the
// accumulated weighted workload, so the recommendation tracks the live
// query stream. An advise pass triggers when either
//   - at least `min_new_queries` captures are pending (count trigger), or
//   - captures are pending and `advise_interval_seconds` elapsed since
//     the last pass (time trigger);
// the thread polls those conditions every `poll_interval_seconds`.
//
// Each pass reports *recommendation churn* — how many indexes entered and
// left the recommended configuration relative to the previous pass —
// through the xia.workload.online.* metrics; a converging workload shows
// churn decaying to zero.
//
// Threading model. Three lock levels, always acquired in this order:
//   1. mu_        — templatizer, last recommendation, pass statistics;
//                   held across a whole advise pass, so Snapshot() /
//                   AdviseNow() serialize against the background pass.
//   2. db_mutex   — optional, caller-owned (the xia::Database lock);
//                   held shared while Recommend reads the document store
//                   and statistics. Store mutations (load / insert /
//                   delete / update / index DDL) take it exclusively,
//                   which is what makes online advising safe next to a
//                   live write path.
//   3. leaf mutexes — internal to WorkloadCapture; acquired and released
//      below db_mutex and never calling back out, so they stay leaves.
// Start()/Stop() are main-thread operations; Stop() joins.
//
// Each advise pass runs Recommend on the background thread itself
// (DESIGN §12): the pass shares no mutable advisor state with a
// concurrent Database::Advise call on the same database.

#ifndef XIA_WORKLOAD_ONLINE_ADVISOR_H_
#define XIA_WORKLOAD_ONLINE_ADVISOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "advisor/advisor.h"
#include "engine/query.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "workload/capture.h"
#include "workload/templatizer.h"

namespace xia::workload {

/// Online advising knobs.
struct OnlineAdvisorOptions {
  /// Advise as soon as this many captures are pending.
  size_t min_new_queries = 64;
  /// ... or when any are pending and this much time passed since the
  /// last pass.
  double advise_interval_seconds = 2.0;
  /// Background trigger-poll period.
  double poll_interval_seconds = 0.02;
  /// Options for each Recommend pass.
  advisor::AdvisorOptions advisor;
  /// Retry policy: a failed Recommend pass is retried up to this many
  /// extra times within the same pass, sleeping an exponentially growing
  /// backoff between attempts. Worst-case pass latency therefore grows by
  /// backoff_initial_seconds * (multiplier^retries - 1) / (multiplier - 1).
  int max_retries = 2;
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
  /// Circuit breaker: after this many consecutive *passes* fail (retries
  /// exhausted each time), the breaker opens and further passes return
  /// kUnavailable without touching the advisor. After
  /// circuit_cooldown_seconds a single half-open probe pass is allowed:
  /// success closes the breaker, failure re-opens it for another cooldown.
  int circuit_breaker_failures = 5;
  double circuit_cooldown_seconds = 5.0;
  /// Durability: when set, the background thread invokes this at most
  /// once per `checkpoint_interval_seconds` to checkpoint the WAL and
  /// truncate the log. The callback must do its own locking (the shell's
  /// calls Database::Checkpoint, which takes the db mutex); it is called
  /// with no OnlineAdvisor lock held.
  std::function<Status()> checkpoint_fn;
  double checkpoint_interval_seconds = 30.0;
};

/// Point-in-time view of the online advising state.
struct OnlineAdvisorStatus {
  bool running = false;
  /// Raw captured statements folded in so far.
  uint64_t queries_seen = 0;
  size_t template_count = 0;
  double dedup_ratio = 0;
  /// Completed advise passes (and failed ones).
  uint64_t advise_runs = 0;
  uint64_t advise_failures = 0;
  /// Within-pass retry attempts across all passes.
  uint64_t advise_retries = 0;
  /// Failed passes since the last success (resets to 0 on success).
  uint64_t consecutive_failures = 0;
  /// Circuit-breaker state: open means passes are being skipped.
  bool circuit_open = false;
  uint64_t circuit_opens = 0;
  /// ToString of the most recent pass failure; empty after a success.
  std::string last_error;
  double last_advise_seconds = 0;
  /// Churn of the most recent pass: indexes entering / leaving the
  /// recommended configuration.
  size_t last_entered = 0;
  size_t last_left = 0;
  /// Most recent successful recommendation.
  bool has_recommendation = false;
  advisor::Recommendation recommendation;
  /// WAL checkpoints triggered by the background thread (when a
  /// checkpoint_fn is configured).
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;
  /// ToString of the most recent checkpoint failure; empty after success.
  std::string last_checkpoint_error;
};

/// Drains a WorkloadCapture and keeps a recommendation current.
class OnlineAdvisor {
 public:
  /// Neither `capture` nor `advisor` is owned; both must outlive this.
  /// `db_mutex` (optional, caller-owned) is held shared during each
  /// Recommend — see the threading model above.
  OnlineAdvisor(WorkloadCapture* capture, advisor::IndexAdvisor* advisor,
                OnlineAdvisorOptions options = OnlineAdvisorOptions(),
                std::shared_mutex* db_mutex = nullptr);
  ~OnlineAdvisor();

  OnlineAdvisor(const OnlineAdvisor&) = delete;
  OnlineAdvisor& operator=(const OnlineAdvisor&) = delete;

  /// Starts the background thread (and enables the capture).
  Status Start();
  /// Stops and joins the background thread (and disables the capture).
  /// Pending captures stay in the sink. Idempotent.
  void Stop();
  bool running() const;

  /// Synchronously drains the capture and runs one advise pass (even when
  /// nothing is pending, as long as templates exist). Serializes against
  /// the background thread.
  Status AdviseNow();

  OnlineAdvisorStatus Snapshot() const;

  /// The templatized workload accumulated so far.
  engine::Workload CurrentWorkload() const;

 private:
  void Loop();
  /// Drain + templatize + Recommend + churn accounting. mu_ held.
  Status DrainAndAdviseLocked();
  /// Runs checkpoint_fn if the checkpoint interval elapsed. Called from
  /// the background loop with no locks held.
  void MaybeCheckpoint();

  WorkloadCapture* const capture_;
  advisor::IndexAdvisor* const advisor_;
  const OnlineAdvisorOptions options_;
  std::shared_mutex* const db_mutex_;

  mutable std::mutex mu_;
  Templatizer templatizer_;
  uint64_t queries_seen_ = 0;
  uint64_t advise_runs_ = 0;
  uint64_t advise_failures_ = 0;
  uint64_t advise_retries_ = 0;
  uint64_t consecutive_failures_ = 0;
  bool circuit_open_ = false;
  uint64_t circuit_opens_ = 0;
  std::string last_error_;
  Stopwatch circuit_opened_;
  double last_advise_seconds_ = 0;
  size_t last_entered_ = 0;
  size_t last_left_ = 0;
  bool has_recommendation_ = false;
  advisor::Recommendation recommendation_;
  Stopwatch since_last_advise_;
  Stopwatch since_last_checkpoint_;
  uint64_t checkpoints_ = 0;
  uint64_t checkpoint_failures_ = 0;
  std::string last_checkpoint_error_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace xia::workload

#endif  // XIA_WORKLOAD_ONLINE_ADVISOR_H_
