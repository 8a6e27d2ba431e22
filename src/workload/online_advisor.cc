#include "workload/online_advisor.h"

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace xia::workload {

namespace {

// Identity of a recommended index for churn accounting: collection +
// pattern (ToString covers path, value type and structural-ness).
std::set<std::string> IndexKeys(const advisor::Recommendation& rec) {
  std::set<std::string> keys;
  for (const auto& ri : rec.indexes) {
    keys.insert(ri.collection + "|" + ri.pattern.ToString());
  }
  return keys;
}

}  // namespace

OnlineAdvisor::OnlineAdvisor(WorkloadCapture* capture,
                             advisor::IndexAdvisor* advisor,
                             OnlineAdvisorOptions options,
                             std::shared_mutex* db_mutex)
    : capture_(capture),
      advisor_(advisor),
      options_(std::move(options)),
      db_mutex_(db_mutex) {}

OnlineAdvisor::~OnlineAdvisor() { Stop(); }

Status OnlineAdvisor::Start() {
  if (thread_.joinable()) {
    return Status::FailedPrecondition("online advisor already running");
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    since_last_advise_.Restart();
    since_last_checkpoint_.Restart();
  }
  capture_->set_enabled(true);
  thread_ = std::thread(&OnlineAdvisor::Loop, this);
  return Status::OK();
}

void OnlineAdvisor::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  capture_->set_enabled(false);
}

bool OnlineAdvisor::running() const { return thread_.joinable(); }

void OnlineAdvisor::Loop() {
  const auto poll = std::chrono::duration<double>(
      options_.poll_interval_seconds);
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, poll, [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    {
      std::lock_guard<std::mutex> state(mu_);
      const size_t pending = capture_->pending();
      const bool due =
          pending >= options_.min_new_queries ||
          (pending > 0 && since_last_advise_.ElapsedSeconds() >=
                              options_.advise_interval_seconds);
      // Advise failures (e.g. an empty store) are surfaced via the
      // failure counter; the loop keeps running.
      if (due) (void)DrainAndAdviseLocked();
    }
    MaybeCheckpoint();
    lock.lock();
  }
}

void OnlineAdvisor::MaybeCheckpoint() {
  if (!options_.checkpoint_fn) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (since_last_checkpoint_.ElapsedSeconds() <
        options_.checkpoint_interval_seconds) {
      return;
    }
    since_last_checkpoint_.Restart();
  }
  // The callback locks the db mutex itself; holding mu_ across it would
  // invert the mu_ -> db_mutex order used by advise passes.
  const Status s = options_.checkpoint_fn();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.ok()) {
    ++checkpoints_;
    last_checkpoint_error_.clear();
    XIA_OBS_COUNT("xia.workload.online.checkpoints", 1);
  } else {
    ++checkpoint_failures_;
    last_checkpoint_error_ = s.ToString();
    XIA_OBS_COUNT("xia.workload.online.checkpoint_failures", 1);
  }
}

Status OnlineAdvisor::AdviseNow() {
  std::lock_guard<std::mutex> lock(mu_);
  return DrainAndAdviseLocked();
}

Status OnlineAdvisor::DrainAndAdviseLocked() {
  // Captures fold into the templatizer even while the breaker is open, so
  // the workload picture stays current and the half-open probe advises on
  // everything seen during the outage.
  const std::vector<CapturedQuery> batch = capture_->Drain();
  templatizer_.AddBatch(batch);
  queries_seen_ += batch.size();
  if (templatizer_.empty()) {
    return Status::FailedPrecondition("no queries captured yet");
  }

  const bool half_open_probe = circuit_open_;
  if (circuit_open_ &&
      circuit_opened_.ElapsedSeconds() < options_.circuit_cooldown_seconds) {
    return Status::Unavailable(
        "online advising suspended: circuit breaker open after " +
        std::to_string(consecutive_failures_) + " consecutive failures");
  }

  const engine::Workload workload = templatizer_.ToWorkload();
  // The fault point sits inside the attempt loop, so an Nth-hit fault
  // exercises retry recovery rather than failing the whole pass.
  fault::FaultPoint* fault_point =
      fault::FaultRegistry::Global().GetPoint(fault::points::kOnlineAdvise);

  Stopwatch timer;
  // A half-open probe gets exactly one attempt; a closed-breaker pass
  // retries with exponential backoff. Backoff sleeps hold mu_, which is
  // why the defaults keep the worst case well under a poll interval.
  const int max_attempts = half_open_probe ? 1 : options_.max_retries + 1;
  double backoff = options_.backoff_initial_seconds;
  Result<advisor::Recommendation> rec =
      Status::Internal("online advise pass never attempted");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++advise_retries_;
      XIA_OBS_COUNT("xia.workload.online.retries", 1);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= options_.backoff_multiplier;
    }
    if (fault_point->ShouldFire()) {
      rec = fault_point->InjectedStatus();
      continue;
    }
    rec = [&] {
      if (db_mutex_ != nullptr) {
        std::shared_lock<std::shared_mutex> db(*db_mutex_);
        return advisor_->Recommend(workload, options_.advisor);
      }
      return advisor_->Recommend(workload, options_.advisor);
    }();
    if (rec.ok()) break;
  }
  const double seconds = timer.ElapsedSeconds();

  if (!rec.ok()) {
    ++advise_failures_;
    ++consecutive_failures_;
    last_error_ = rec.status().ToString();
    XIA_OBS_COUNT("xia.workload.online.advise_failures", 1);
    if (circuit_open_) {
      // Failed half-open probe: stay open for another cooldown.
      circuit_opened_.Restart();
    } else if (consecutive_failures_ >=
               static_cast<uint64_t>(options_.circuit_breaker_failures)) {
      circuit_open_ = true;
      ++circuit_opens_;
      circuit_opened_.Restart();
      XIA_OBS_COUNT("xia.workload.online.circuit_opens", 1);
      XIA_OBS_GAUGE_SET("xia.workload.online.circuit_open", 1);
    }
    return rec.status();
  }

  consecutive_failures_ = 0;
  last_error_.clear();
  if (circuit_open_) {
    circuit_open_ = false;  // successful probe closes the breaker
    XIA_OBS_GAUGE_SET("xia.workload.online.circuit_open", 0);
  }

  const std::set<std::string> before = IndexKeys(recommendation_);
  const std::set<std::string> after = IndexKeys(*rec);
  size_t entered = 0;
  for (const std::string& k : after) entered += before.count(k) == 0;
  size_t left = 0;
  for (const std::string& k : before) left += after.count(k) == 0;
  // The very first pass is all "entering"; that is the honest reading
  // (the configuration went from nothing to something).

  recommendation_ = std::move(*rec);
  has_recommendation_ = true;
  ++advise_runs_;
  last_advise_seconds_ = seconds;
  last_entered_ = entered;
  last_left_ = left;
  since_last_advise_.Restart();

  XIA_OBS_COUNT("xia.workload.online.advise_runs", 1);
  XIA_OBS_COUNT("xia.workload.online.churn_entered", entered);
  XIA_OBS_COUNT("xia.workload.online.churn_left", left);
  XIA_OBS_OBSERVE_LATENCY("xia.workload.online.advise_seconds", seconds);
  return Status::OK();
}

OnlineAdvisorStatus OnlineAdvisor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  OnlineAdvisorStatus status;
  status.running = running();
  status.queries_seen = queries_seen_;
  status.template_count = templatizer_.template_count();
  status.dedup_ratio = templatizer_.DedupRatio();
  status.advise_runs = advise_runs_;
  status.advise_failures = advise_failures_;
  status.advise_retries = advise_retries_;
  status.consecutive_failures = consecutive_failures_;
  status.circuit_open = circuit_open_;
  status.circuit_opens = circuit_opens_;
  status.last_error = last_error_;
  status.last_advise_seconds = last_advise_seconds_;
  status.last_entered = last_entered_;
  status.last_left = last_left_;
  status.has_recommendation = has_recommendation_;
  if (has_recommendation_) status.recommendation = recommendation_;
  status.checkpoints = checkpoints_;
  status.checkpoint_failures = checkpoint_failures_;
  status.last_checkpoint_error = last_checkpoint_error_;
  return status;
}

engine::Workload OnlineAdvisor::CurrentWorkload() const {
  std::lock_guard<std::mutex> lock(mu_);
  return templatizer_.ToWorkload();
}

}  // namespace xia::workload
