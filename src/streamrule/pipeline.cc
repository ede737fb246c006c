#include "streamrule/pipeline.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "streamrule/validate.h"
#include "util/logging.h"

namespace streamasp {

StatusOr<std::unique_ptr<StreamRulePipeline>> StreamRulePipeline::Create(
    const Program* program, PipelineOptions options,
    EmissionHandler handler) {
  if (handler == nullptr) {
    return InvalidArgumentError("emission handler must not be null");
  }
  if (program == nullptr) {
    return InvalidArgumentError("program must not be null");
  }
  STREAMASP_RETURN_IF_ERROR(ValidatePipelineOptions(options));
  STREAMASP_RETURN_IF_ERROR(program->Validate());
  // Every window arrives as triples: refuse input predicates they cannot
  // carry (arity outside 1-2, or one name at two arities).
  STREAMASP_RETURN_IF_ERROR(DataFormatProcessor().DeclareInputPredicates(
      program->input_predicates()));

  PartitioningPlan plan(1);
  DecompositionInfo info;
  if (options.disable_partitioning) {
    // A single community holding every input predicate: PR degenerates
    // to whole-window reasoning on one worker.
    for (const PredicateSignature& sig : program->input_predicates()) {
      plan.Assign(sig, 0);
    }
    info.num_communities = 1;
  } else {
    STREAMASP_ASSIGN_OR_RETURN(
        InputDependencyGraph graph,
        InputDependencyGraph::Build(*program, options.dependency));
    STREAMASP_ASSIGN_OR_RETURN(
        plan,
        DecomposeInputDependencyGraph(graph, options.decomposition, &info));
  }
  return std::unique_ptr<StreamRulePipeline>(new StreamRulePipeline(
      program, std::move(options), std::move(plan), info,
      std::move(handler)));
}

StreamRulePipeline::StreamRulePipeline(const Program* program,
                                       PipelineOptions options,
                                       PartitioningPlan plan,
                                       DecompositionInfo info,
                                       EmissionHandler handler)
    : program_(program),
      options_(options),
      plan_(std::move(plan)),
      info_(info),
      handler_(std::move(handler)) {
  query_ = std::make_unique<StreamQueryProcessor>(
      options_.window_size, options_.window_slide,
      [this](TripleWindow window) {
        {
          // Caller-thread sample: the windower just closed this window, so
          // its retained buffer is at the per-window peak. Sampling here
          // (not in stats()) keeps WindowStore reads off foreign threads.
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.window_store_bytes =
              std::max(stats_.window_store_bytes, query_->retained_bytes());
        }
        if (options_.admission_filter != nullptr &&
            !options_.admission_filter(window)) {
          // Caller-controlled shedding, upstream of the work queue: works
          // in sync mode too, and its sheds are deterministic — which is
          // what the overload property tests drive.
          ShedWindow(std::move(window), /*evicted=*/false);
          return;
        }
        if (options_.async && options_.max_queued_windows > 0) {
          // Per-tenant window quota, enforced at the same ingest boundary
          // as the admission filter: bound admitted-but-undelivered
          // windows (queued + reasoning + parked + mid-callback), so a
          // tenant that outruns its service rate sheds deterministically
          // here instead of buffering without limit.
          size_t undelivered = 0;
          {
            std::lock_guard<std::mutex> lock(emit_mutex_);
            undelivered =
                inflight_.size() + completed_.size() + delivering_;
          }
          if (undelivered >= options_.max_queued_windows) {
            ShedWindow(std::move(window), /*evicted=*/false);
            return;
          }
        }
        if (options_.async) {
          EnqueueWindow(std::move(window));
        } else {
          ProcessWindowSync(window);
        }
      });
  for (const PredicateSignature& sig : program->input_predicates()) {
    query_->RegisterPredicate(sig.name);
  }
  ParallelReasonerOptions reasoner_options = options_.reasoner;
  // Async: the lane runs the reasoner's phases as tasks, so it is built
  // inline and spawns no pool of its own (the thread budget stays
  // O(pool), not O(sessions x inner threads)).
  if (options_.async) reasoner_options.num_threads = 1;
  reasoner_ =
      std::make_unique<ParallelReasoner>(program_, plan_, reasoner_options);
  if (options_.async) StartAsyncEngine();
}

StreamRulePipeline::~StreamRulePipeline() {
  if (!options_.async) return;
  // Drain: stop admission, then wait until every task of this pipeline's
  // lane has run. One task was submitted per admitted window, and a
  // window's partition tasks, like a deferred pop, are submitted or run
  // while a task of the lane still runs (its window task, or under reuse
  // a predecessor's task), so an empty lane means the work queue is empty
  // and every admitted sequence was reasoned or shed — and the last
  // finisher's DrainCompleted delivered the reorder buffer. The trailing
  // call is for the degenerate no-task case (only tombstones were ever
  // parked, by a caller that has since returned). A private pool is
  // joined when the members go.
  work_queue_->Close();
  pool_queue_->Drain();
  DrainCompleted();
}

void StreamRulePipeline::StartAsyncEngine() {
  private_pool_ = ProvidePrivatePool(&options_);
  work_queue_ = std::make_unique<BoundedQueue<TripleWindow>>(
      options_.max_inflight_windows, options_.backpressure);
  pool_queue_ = options_.shared_pool->CreateQueue(
      options_.pool_weight,
      ResolveLaneCap(options_, /*private_pool=*/private_pool_ != nullptr));
  if (reasoner_->incremental()) chains_.resize(num_partitions());
}

void StreamRulePipeline::Push(const Triple& triple) { query_->Push(triple); }

void StreamRulePipeline::PushBatch(const std::vector<Triple>& triples) {
  query_->PushBatch(triples);
}

void StreamRulePipeline::Flush() {
  query_->Flush();
  if (!options_.async) return;
  {
    std::unique_lock<std::mutex> lock(emit_mutex_);
    drained_cv_.wait(lock, [this] {
      return inflight_.empty() && completed_.empty() && delivering_ == 0;
    });
  }
  // Every window is delivered; also wait out the epilogues of the tasks
  // that delivered them, so the lane's counters are settled when Flush
  // returns.
  pool_queue_->Drain();
}

PipelineStats StreamRulePipeline::stats() const {
  PipelineStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  if (work_queue_ != nullptr) {
    snapshot.max_queue_depth = work_queue_->stats().max_depth;
  }
  return snapshot;
}

void StreamRulePipeline::EnqueueWindow(TripleWindow window) {
  const uint64_t sequence = window.sequence;
  size_t inflight_depth = 0;
  {
    std::lock_guard<std::mutex> lock(emit_mutex_);
    inflight_.insert(sequence);
    inflight_depth = inflight_.size();
  }
  {
    // Count admission BEFORE the push: under kBlock a pool task can reason
    // and deliver this window before Push even returns, and stats() must
    // never observe windows > enqueued_windows. The refused outcomes
    // below undo the count.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.enqueued_windows;
    stats_.max_inflight_depth =
        std::max(stats_.max_inflight_depth, inflight_depth);
  }
  TripleWindow displaced;
  const QueuePushResult pushed =
      work_queue_->Push(std::move(window), &displaced);
  if (pushed == QueuePushResult::kOk ||
      pushed == QueuePushResult::kDroppedOldest) {
    // One unit-cost task per admitted window. Counting both outcomes
    // keeps the conservation invariant simple — outstanding tasks >=
    // queued windows at all times — at the cost of an occasional surplus
    // task whose TryPop comes up empty and no-ops (the eviction path
    // leaves the queue depth unchanged, so its task is the surplus one).
    pool_queue_->Submit([this] { PoolTask(); });
  }
  switch (pushed) {
    case QueuePushResult::kOk:
      break;
    case QueuePushResult::kDroppedOldest:
      // The evicted window was admitted earlier: its tombstone releases
      // the sequence slot it would otherwise leave gaping (ShedWindow
      // parks it in the reorder buffer and drives delivery, which may
      // have been waiting on exactly this sequence).
      ShedWindow(std::move(displaced), /*evicted=*/true);
      break;
    case QueuePushResult::kRejected: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        --stats_.enqueued_windows;
      }
      // `window` was moved into Push; the refused window came back here.
      ShedWindow(std::move(displaced), /*evicted=*/false);
      break;
    }
    case QueuePushResult::kClosed: {
      {
        std::lock_guard<std::mutex> lock(emit_mutex_);
        inflight_.erase(sequence);
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      --stats_.enqueued_windows;
      break;
    }
  }
}

void StreamRulePipeline::ShedWindow(TripleWindow window, bool evicted) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (evicted) {
      ++stats_.dropped_windows;
    } else {
      ++stats_.rejected_windows;
    }
    stats_.shed_items += window.size();
  }
  if (!evicted) {
    // A synchronous refusal happens inside this very window's emission
    // callback, so folding its delta back composes exactly: the next
    // emission nets the change across the gap and the delivered delta
    // chain (delta_base) stays unbroken. Evictions are mid-stream — the
    // admitted windows between the victim and "now" are still queued —
    // so their delta dies with them and incremental consumers detect the
    // delta_base gap and snapshot-diff.
    query_->FoldShedDelta(&window);
  }
  if (!options_.async) {
    DeliverShed(window);
    return;
  }
  const uint64_t sequence = window.sequence;
  {
    std::lock_guard<std::mutex> lock(emit_mutex_);
    inflight_.erase(sequence);
    CompletedWindow tombstone;
    tombstone.shed = true;
    tombstone.window = std::move(window);
    completed_.emplace(sequence, std::move(tombstone));
  }
  // The shedding caller itself drives delivery, which also covers the
  // tombstone-only tail (a shed with no pool task left to drain after it).
  DrainCompleted();
}

void StreamRulePipeline::DeliverShed(TripleWindow& window) {
  EmissionEvent event;
  event.kind = EmissionEvent::Kind::kShed;
  event.sequence = window.sequence;
  event.window = &window;
  handler_(event);
}

void StreamRulePipeline::ProcessWindowSync(TripleWindow& window) {
  // Exactly one delivery per window (ordered consumers account for every
  // sequence), so exceptions take the same error path as async windows.
  StatusOr<ParallelReasonerResult> result{InternalError("not run")};
  try {
    result = reasoner_->Process(window);
  } catch (const std::exception& e) {
    result = InternalError(std::string("reasoning exception: ") + e.what());
  } catch (...) {
    result = InternalError("reasoning exception");
  }
  DeliverResult(window, result);
}

struct StreamRulePipeline::PoolWindow {
  TripleWindow window;
  ParallelReasoner::Job job;
  std::atomic<size_t> unfinished_partitions{0};
};

std::shared_ptr<StreamRulePipeline::PoolWindow> StreamRulePipeline::PopWindow(
    std::unique_lock<std::mutex>& lock) {
  std::optional<TripleWindow> popped = work_queue_->TryPop();
  if (!popped.has_value()) {
    // Surplus pop: the window it was submitted for was consumed by an
    // eviction (its tombstone is already parked). Nothing to do.
    return nullptr;
  }
  auto pool_window = std::make_shared<PoolWindow>();
  pool_window->window = std::move(*popped);
  try {
    pool_window->job = reasoner_->Split(pool_window->window);
  } catch (...) {
    if (lock.owns_lock()) lock.unlock();
    FinishPoolWindow(*pool_window, std::current_exception());
    return nullptr;
  }
  pool_window->unfinished_partitions.store(pool_window->job.num_partitions());
  return pool_window;
}

void StreamRulePipeline::PoolTask() {
  if (chains_.empty()) {
    std::unique_lock<std::mutex> unlocked;
    std::shared_ptr<PoolWindow> pool_window = PopWindow(unlocked);
    if (pool_window == nullptr) return;
    // Front-submit in reverse so the lane runs partition 1 first.
    for (size_t i = pool_window->job.num_partitions(); i-- > 1;) {
      SubmitPartition(pool_window, i);
    }
    ReasonPoolPartition(pool_window, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(chains_mutex_);
    if (chained_windows_ == pool_queue_->max_inflight()) {
      // Every chain slot is held: the window stays queued (so
      // backpressure sees it) until a chained window finishes and pops
      // it in this task's stead.
      ++deferred_pops_;
      return;
    }
    ++chained_windows_;
  }
  StartChainedWindow();
}

void StreamRulePipeline::StartChainedWindow() {
  do {
    std::unique_lock<std::mutex> lock(chains_mutex_);
    std::shared_ptr<PoolWindow> pool_window = PopWindow(lock);
    if (pool_window != nullptr) {
      // Front-submit in reverse so the lane runs partition 0 first.
      for (size_t i = pool_window->job.num_partitions(); i-- > 0;) {
        chains_[i].push_back(pool_window);
        if (chains_[i].size() == 1) SubmitPartition(pool_window, i);
      }
      return;
    }
  } while (PassChainSlot());
}

bool StreamRulePipeline::PassChainSlot() {
  std::lock_guard<std::mutex> lock(chains_mutex_);
  if (deferred_pops_ == 0) {
    --chained_windows_;
    return false;
  }
  --deferred_pops_;
  return true;
}

void StreamRulePipeline::SubmitPartition(
    std::shared_ptr<PoolWindow> pool_window, size_t index) {
  pool_queue_->SubmitFront(
      [this, pool_window = std::move(pool_window), index] {
        ReasonPoolPartition(pool_window, index);
      });
}

void StreamRulePipeline::ReasonPoolPartition(
    const std::shared_ptr<PoolWindow>& pool_window, size_t index) {
  reasoner_->ReasonPartition(&pool_window->job, index);
  if (!chains_.empty()) {
    // Release the same partition of the next chained window before this
    // window's delivery, which stays off the chain's critical path.
    std::lock_guard<std::mutex> lock(chains_mutex_);
    std::deque<std::shared_ptr<PoolWindow>>& chain = chains_[index];
    chain.pop_front();
    if (!chain.empty()) SubmitPartition(chain.front(), index);
  }
  // The countdown orders every partition's outcome before the last
  // finisher's Finish.
  if (pool_window->unfinished_partitions.fetch_sub(1) != 1) return;
  FinishPoolWindow(*pool_window);
  if (!chains_.empty() && PassChainSlot()) StartChainedWindow();
}

void StreamRulePipeline::FinishPoolWindow(PoolWindow& pool_window,
                                          std::exception_ptr error) {
  CompletedWindow done;
  // An exception escaping a pool task would terminate the process;
  // convert it to the same error path a failed Status takes.
  try {
    if (error != nullptr) std::rethrow_exception(error);
    done.result = reasoner_->Finish(std::move(pool_window.job));
  } catch (const std::exception& e) {
    done.result =
        InternalError(std::string("reasoning task exception: ") + e.what());
  } catch (...) {
    done.result = InternalError("reasoning task exception");
  }
  const uint64_t sequence = pool_window.window.sequence;
  done.window = std::move(pool_window.window);
  size_t reorder_depth = 0;
  {
    std::lock_guard<std::mutex> lock(emit_mutex_);
    completed_.emplace(sequence, std::move(done));
    inflight_.erase(sequence);
    reorder_depth = completed_.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.max_reorder_depth =
        std::max(stats_.max_reorder_depth, reorder_depth);
  }
  DrainCompleted();
}

void StreamRulePipeline::DrainCompleted() {
  std::unique_lock<std::mutex> lock(emit_mutex_);
  if (draining_) {
    // Another thread holds the drain baton. It re-checks CanEmitLocked
    // under this same mutex after each delivery and before releasing the
    // baton, so anything we parked before locking here is either already
    // observed by its re-check or will be — returning loses nothing.
    return;
  }
  draining_ = true;
  while (CanEmitLocked()) {
    auto first = completed_.begin();
    CompletedWindow done = std::move(first->second);
    completed_.erase(first);
    ++delivering_;
    lock.unlock();
    try {
      if (done.shed) {
        DeliverShed(done.window);
      } else {
        DeliverResult(done.window, done.result);
      }
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.errors;
      }
      STREAMASP_LOG(kError) << "window " << done.window.sequence
                            << ": delivery callback threw: " << e.what();
    } catch (...) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.errors;
      }
      STREAMASP_LOG(kError) << "window " << done.window.sequence
                            << ": delivery callback threw";
    }
    lock.lock();
    --delivering_;
  }
  draining_ = false;
  if (inflight_.empty() && completed_.empty() && delivering_ == 0) {
    drained_cv_.notify_all();
  }
}

bool StreamRulePipeline::CanEmitLocked() const {
  if (completed_.empty()) return false;
  // Deliverable once no admitted-but-unreasoned window has a smaller
  // sequence. The windower assigns sequences in admission order, so
  // nothing below min(inflight_) can still appear.
  return inflight_.empty() ||
         completed_.begin()->first < *inflight_.begin();
}

void StreamRulePipeline::DeliverResult(
    TripleWindow& window, const StatusOr<ParallelReasonerResult>& result) {
  if (!result.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.errors;
    }
    STREAMASP_LOG(kError) << "window " << window.sequence << ": "
                          << result.status();
    EmissionEvent event;
    event.kind = EmissionEvent::Kind::kError;
    event.sequence = window.sequence;
    event.window = &window;
    event.status = result.status();
    handler_(event);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.windows;
    stats_.items += window.size();
    stats_.answers += result->answers.size();
    stats_.total_latency_ms += result->latency_ms;
    stats_.max_latency_ms =
        std::max(stats_.max_latency_ms, result->latency_ms);
    stats_.total_critical_path_ms += result->critical_path_ms;
    stats_.incremental_windows += result->grounding.incremental_windows;
    stats_.grounding_fallbacks += result->grounding.incremental_fallbacks;
    stats_.grounding_rules_retained += result->grounding.rules_retained;
    stats_.grounding_rules_retracted += result->grounding.rules_retracted;
    stats_.grounding_rules_new += result->grounding.rules_new;
    stats_.decided_groundings += result->grounding.decided_groundings;
    stats_.incremental_solve_windows +=
        result->solving.incremental_solve_windows;
    stats_.solve_rebuilds += result->solving.solve_rebuilds;
    stats_.warm_start_hits += result->solving.warm_start_hits;
    stats_.atoms_touched += result->solving.atoms_touched;
    stats_.assignments_reused += result->solving.assignments_reused;
    stats_.fixpoint_maintained_windows +=
        result->solving.fixpoint_maintained_windows;
    stats_.total_ground_ms += result->ground_ms;
    stats_.total_solve_ms += result->solve_ms;
    stats_.atom_table_bytes =
        std::max(stats_.atom_table_bytes, result->grounding.atom_table_bytes);
    stats_.max_window_items =
        std::max<uint64_t>(stats_.max_window_items, window.size());
  }
  EmissionEvent event;
  event.sequence = window.sequence;
  event.window = &window;
  event.result = &*result;
  handler_(event);
}

}  // namespace streamasp
