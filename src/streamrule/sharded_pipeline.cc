#include "streamrule/sharded_pipeline.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "streamrule/accuracy.h"
#include "streamrule/validate.h"
#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

StatusOr<std::unique_ptr<ShardedPipelineEngine>> ShardedPipelineEngine::Create(
    const Program* program, ShardedPipelineOptions options,
    EmissionHandler handler) {
  if (program == nullptr) {
    return InvalidArgumentError("program must not be null");
  }
  if (handler == nullptr) {
    return InvalidArgumentError("emission handler must not be null");
  }
  // Lossy backpressure policies (kDropOldest/kReject) and the admission
  // filter are fully supported, sliding global windows included: a shed
  // sub-window surfaces as a tombstone in the shard's emission stream,
  // which releases its merge slot and lowers the merged window's
  // completeness instead of stalling the ordered merge (see
  // DeliverMerged). The cross-cutting option rules live in the shared
  // validator.
  STREAMASP_RETURN_IF_ERROR(ValidateShardedPipelineOptions(options));
  if (options.shard_key == nullptr) options.shard_key = SubjectShardKey();
  std::unique_ptr<ShardedPipelineEngine> engine(new ShardedPipelineEngine(
      program, std::move(options), std::move(handler)));
  STREAMASP_RETURN_IF_ERROR(engine->StartShards());
  return engine;
}

ShardedPipelineEngine::ShardedPipelineEngine(const Program* program,
                                             ShardedPipelineOptions options,
                                             EmissionHandler handler)
    : program_(program),
      options_(std::move(options)),
      handler_(std::move(handler)),
      merge_combiner_(options_.pipeline.reasoner.combining),
      routed_items_(options_.num_shards) {
  const size_t n = options_.num_shards;
  batches_.resize(n);
  pending_in_window_.assign(n, 0);
  pending_expired_.resize(n);
  pending_admitted_.resize(n);
  slice_count_.assign(n, 0);
  global_sequence_of_.resize(n);
}

Status ShardedPipelineEngine::StartShards() {
  const size_t n = options_.num_shards;
  for (const PredicateSignature& sig : program_->input_predicates()) {
    selected_.insert(sig.name);
  }

  // The router owns the global window boundaries: each shard's windower
  // gets a size it can never reach between punctuations (at most
  // window_size_ items cross all shards per global window), so every
  // sub-window close comes from CloseWindow(). Sliding global windows
  // instead put the shard windowers in external-delta mode: they retain
  // routed survivors and every boundary arrives as a delta-carrying
  // CloseWindow(WindowDelta) from the router.
  PipelineOptions inner = options_.pipeline;
  window_size_ = std::max<size_t>(1, inner.window_size);
  slide_ = inner.window_slide == 0
               ? window_size_
               : std::min(inner.window_slide, window_size_);
  if (window_size_ < SIZE_MAX) inner.window_size = window_size_ + 1;
  inner.window_slide = 0;
  inner.external_delta_punctuation = sliding();

  // Async shards without an external pool share ONE private pool,
  // built here rather than once per shard.
  private_pool_ = ProvidePrivatePool(&inner);
  if (inner.async && inner.shared_queue == nullptr) {
    // Build ONE engine-wide DRR lane here and hand it to every shard
    // pipeline, so the tenant's weight and inflight cap govern the whole
    // engine rather than multiplying by num_shards. Each shard still
    // sizes its own reasoner slots to the lane's cap (its concurrent
    // tasks are a subset of the lane's). Async shards spawn no reasoning
    // threads: their partitions fan out as tasks on this lane.
    inner.shared_queue = inner.shared_pool->CreateQueue(
        inner.pool_weight,
        ResolveLaneCap(inner, /*private_pool=*/private_pool_ != nullptr));
  } else if (!inner.async && inner.reasoner.num_threads == 0) {
    // Budget sync shards' reasoner threads across the shards, so N shards
    // do not each claim the whole machine.
    inner.reasoner.num_threads =
        std::max<size_t>(1, DefaultThreadCount() / n);
  }

  // Queues before threads: the destructor's cleanup path assumes every
  // started thread has its queue.
  merge_queue_ = std::make_unique<BoundedQueue<MergeItem>>(
      options_.merge_queue_capacity == 0
          ? std::max<size_t>(8, 2 * n)
          : options_.merge_queue_capacity,
      BackpressurePolicy::kBlock);
  feeder_queues_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    feeder_queues_.push_back(std::make_unique<BoundedQueue<ShardCommand>>(
        std::max<size_t>(1, options_.feeder_queue_capacity),
        BackpressurePolicy::kBlock));
  }

  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    StatusOr<std::unique_ptr<StreamRulePipeline>> shard =
        StreamRulePipeline::Create(
            program_, inner,
            EmissionHandler([this, s](EmissionEvent& event) {
              switch (event.kind) {
                case EmissionEvent::Kind::kResult:
                  OnShardDelivery(s, *event.window, *event.result);
                  break;
                case EmissionEvent::Kind::kError:
                  OnShardDelivery(s, *event.window, event.status);
                  break;
                case EmissionEvent::Kind::kShed:
                  OnShardShed(s, *event.window);
                  break;
              }
            }));
    STREAMASP_RETURN_IF_ERROR(shard.status());
    shards_.push_back(std::move(*shard));
  }

  // The paper's duplication device, lifted to the router: a predicate
  // whose ground atoms several dependency communities need cannot be
  // co-located with all of its consumers by any single-shard hash, so
  // its items are broadcast to every shard (Route) and deduplicated at
  // the merge (IsReplica). Every shard analyzes the same program, so
  // shard 0's plan speaks for all. With one shard there is nobody to
  // broadcast to; keep the hot path untouched.
  if (n > 1) {
    for (const PredicateSignature& sig :
         shards_[0]->plan().DuplicatedPredicates()) {
      duplicated_.insert(sig.name);
    }
  }

  merger_ = std::thread([this] { MergeLoop(); });
  feeders_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    feeders_.emplace_back([this, s] { FeederLoop(s); });
  }
  return OkStatus();
}

ShardedPipelineEngine::~ShardedPipelineEngine() {
  // Drain back to front: stop feeding, let each shard reason what it was
  // handed, then let the merge thread deliver every assembled window.
  // A partial global window was never assigned a sequence, so the merge
  // expects nothing from it.
  for (std::unique_ptr<BoundedQueue<ShardCommand>>& queue : feeder_queues_) {
    if (queue != nullptr) queue->Close();
  }
  for (std::thread& feeder : feeders_) {
    if (feeder.joinable()) feeder.join();
  }
  shards_.clear();  // Shard destructors drain their admitted sub-windows.
  if (merge_queue_ != nullptr) merge_queue_->Close();
  if (merger_.joinable()) merger_.join();
}

void ShardedPipelineEngine::Push(const Triple& triple) {
  if (selected_.count(triple.predicate) == 0) {
    filtered_items_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Route(triple);
}

void ShardedPipelineEngine::PushBatch(const std::vector<Triple>& triples) {
  for (const Triple& triple : triples) Push(triple);
}

bool ShardedPipelineEngine::IsReplica(const Triple& triple,
                                      size_t shard) const {
  return duplicated_.count(triple.predicate) > 0 &&
         static_cast<size_t>(options_.shard_key(triple) % shards_.size()) !=
             shard;
}

// Sentinel shard assignment in the retained global WindowStore for
// broadcast (duplicated-predicate) items: eviction must reach every
// shard's expired delta, not a single owner's.
constexpr uint32_t kBroadcastShard = UINT32_MAX;

void ShardedPipelineEngine::Route(const Triple& triple) {
  const size_t shard =
      static_cast<size_t>(options_.shard_key(triple) % shards_.size());
  // Duplicated predicates are broadcast: every shard gets a copy in its
  // batch stream, but only the owning shard's copy advances the global
  // window fill — replicas are reasoning context, not window content.
  const bool broadcast =
      !duplicated_.empty() && duplicated_.count(triple.predicate) > 0;
  batches_[shard].push_back(triple);
  routed_items_[shard].fetch_add(1, std::memory_order_relaxed);
  if (broadcast) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (s == shard) continue;
      batches_[s].push_back(triple);
      routed_items_[s].fetch_add(1, std::memory_order_relaxed);
      broadcast_copies_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!sliding()) {
    ++pending_in_window_[shard];
    if (broadcast) {
      // Replica-holding shards must be punctuated at the boundary too,
      // or their windowers would leak the replicas into the next
      // sub-window.
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (s != shard) ++pending_in_window_[s];
      }
    }
    if (++window_fill_ >= window_size_) {
      CloseGlobalWindow();
    } else if (batches_[shard].size() >= options_.router_batch_size) {
      DispatchBatch(shard, /*close_window=*/false);
    }
    return;
  }

  // Sliding global windows: retain the item, record it in its shard's
  // admitted delta, and evict the globally oldest item once the window
  // overflows — the eviction lands in the *owning* shard's expired
  // delta, which is what keeps every per-shard delta exactly the routed
  // split of the global one. A broadcast item is retained once (global
  // window content is ownership-based) but its admission, slice
  // presence and eventual eviction touch every shard, mirroring the
  // replica copies in their batch streams.
  global_window_.Append(triple, /*timestamp_ms=*/0,
                        broadcast ? kBroadcastShard
                                  : static_cast<uint32_t>(shard));
  pending_admitted_[shard].push_back(triple);
  ++slice_count_[shard];
  if (broadcast) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (s == shard) continue;
      pending_admitted_[s].push_back(triple);
      ++slice_count_[s];
    }
  }
  if (global_window_.size() > window_size_) {
    const uint32_t oldest_shard = global_window_.ShardAt(0);
    if (oldest_shard == kBroadcastShard) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        pending_expired_[s].push_back(global_window_.Front());
        --slice_count_[s];
      }
    } else {
      pending_expired_[oldest_shard].push_back(global_window_.Front());
      --slice_count_[oldest_shard];
    }
    global_window_.PopFront();
  }
  ++arrivals_since_emit_;
  if (global_window_.bytes() >
      router_window_bytes_.load(std::memory_order_relaxed)) {
    router_window_bytes_.store(global_window_.bytes(),
                               std::memory_order_relaxed);
  }
  // Same cadence as the unsharded sliding windower: first boundary when
  // the global window first fills, then every slide_ survivors.
  if ((!emitted_once_ && global_window_.size() == window_size_) ||
      (emitted_once_ && arrivals_since_emit_ >= slide_)) {
    CloseGlobalSlidingWindow();
  } else if (batches_[shard].size() >= options_.router_batch_size) {
    DispatchBatch(shard, /*close_window=*/false);
  }
}

void ShardedPipelineEngine::CloseGlobalWindow() {
  const uint64_t sequence = next_global_sequence_++;
  uint32_t expected = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (pending_in_window_[s] > 0) ++expected;
  }
  // Record the merge's expectations and the local→global sequence mapping
  // BEFORE any punctuation is enqueued: a shard could reason and deliver
  // its sub-window before this loop even finishes.
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    expected_.emplace(sequence, expected);
    ++assigned_windows_;
  }
  {
    std::lock_guard<std::mutex> lock(mapping_mutex_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (pending_in_window_[s] > 0) global_sequence_of_[s].push_back(sequence);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (pending_in_window_[s] == 0) continue;
    DispatchBatch(s, /*close_window=*/true);
    pending_in_window_[s] = 0;
  }
  window_fill_ = 0;
}

void ShardedPipelineEngine::CloseGlobalSlidingWindow() {
  const uint64_t sequence = next_global_sequence_++;
  uint32_t expected = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (slice_count_[s] > 0) ++expected;
  }
  // A boundary only fires with a non-empty global window (first fill or
  // flush of a non-empty buffer), so at least one shard contributes and
  // the merge can never be handed an unfulfillable slot.
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    expected_.emplace(sequence, expected);
    ++assigned_windows_;
  }
  {
    std::lock_guard<std::mutex> lock(mapping_mutex_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (slice_count_[s] > 0) global_sequence_of_[s].push_back(sequence);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (slice_count_[s] == 0) {
      // Nothing of this shard survives in the global window: skip the
      // punctuation (an empty sub-window would distort the merge) and
      // let its pending deltas fold into its next contributing boundary
      // — deltas compose, so the folded delta is still exact.
      if (!pending_expired_[s].empty() || !pending_admitted_[s].empty()) {
        skipped_empty_slices_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    WindowDelta delta;
    delta.expired = std::move(pending_expired_[s]);
    delta.admitted = std::move(pending_admitted_[s]);
    pending_expired_[s].clear();
    pending_admitted_[s].clear();
    DispatchBatch(s, /*close_window=*/true, std::move(delta));
    delta_punctuations_.fetch_add(1, std::memory_order_relaxed);
  }
  arrivals_since_emit_ = 0;
  emitted_once_ = true;
}

void ShardedPipelineEngine::DispatchBatch(size_t shard, bool close_window,
                                          std::optional<WindowDelta> delta) {
  ShardCommand command;
  command.batch = std::move(batches_[shard]);
  batches_[shard].clear();
  command.close_window = close_window;
  command.delta = std::move(delta);
  if (command.batch.empty() && !close_window) return;
  feeder_queues_[shard]->Push(std::move(command));
}

void ShardedPipelineEngine::FeederLoop(size_t shard) {
  StreamRulePipeline& pipeline = *shards_[shard];
  ShardCommand command;
  while (feeder_queues_[shard]->Pop(&command)) {
    if (!command.batch.empty()) pipeline.PushBatch(command.batch);
    if (command.close_window) {
      if (command.delta.has_value()) {
        pipeline.CloseWindow(std::move(*command.delta));
      } else {
        pipeline.CloseWindow();
      }
    }
    if (command.flush) {
      pipeline.Flush();
      {
        std::lock_guard<std::mutex> lock(flush_mutex_);
        ++flush_acks_;
      }
      flush_cv_.notify_all();
    }
  }
}

void ShardedPipelineEngine::Flush() {
  if (sliding()) {
    // Mirror the unsharded sliding windower's Flush: emit the retained
    // buffer as a final window when anything arrived since the last
    // boundary (or nothing was ever emitted).
    if (!global_window_.empty() &&
        (!emitted_once_ || arrivals_since_emit_ > 0)) {
      CloseGlobalSlidingWindow();
    }
  } else if (window_fill_ > 0) {
    CloseGlobalWindow();
  }
  {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    flush_acks_ = 0;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardCommand command;
    command.flush = true;
    feeder_queues_[s]->Push(std::move(command));
  }
  {
    std::unique_lock<std::mutex> lock(flush_mutex_);
    flush_cv_.wait(lock, [this] { return flush_acks_ == shards_.size(); });
  }
  {
    std::unique_lock<std::mutex> lock(merge_mutex_);
    merge_drained_cv_.wait(
        lock, [this] { return delivered_windows_ == assigned_windows_; });
  }
  // Async mode: settle the engine-wide lane's counters as an
  // unsharded pipeline's Flush does (only finishing epilogues remain).
  if (shards_[0]->pool_queue() != nullptr) shards_[0]->pool_queue()->Drain();
}

void ShardedPipelineEngine::OnShardDelivery(
    size_t shard, TripleWindow& window,
    StatusOr<ParallelReasonerResult> result) {
  MergeItem item;
  {
    // Shard pipelines deliver in local window order, so the front of the
    // FIFO is this sub-window's global sequence.
    std::lock_guard<std::mutex> lock(mapping_mutex_);
    item.global_sequence = global_sequence_of_[shard].front();
    global_sequence_of_[shard].pop_front();
  }
  item.shard = shard;
  item.window = std::move(window);  // The shard discards it after us.
  item.result = std::move(result);
  merge_queue_->Push(std::move(item));
}

void ShardedPipelineEngine::OnShardShed(size_t shard, TripleWindow& window) {
  // The tombstone releases the merge slot a shed sub-window would
  // otherwise leave gaping. Shard pipelines interleave tombstones with
  // result/error deliveries in strict local sequence order (one delivery
  // per punctuated sub-window across all three event kinds), so the
  // FIFO-front mapping below stays exact under shedding.
  MergeItem item;
  {
    std::lock_guard<std::mutex> lock(mapping_mutex_);
    item.global_sequence = global_sequence_of_[shard].front();
    global_sequence_of_[shard].pop_front();
  }
  item.shard = shard;
  item.shed = true;
  item.window = std::move(window);  // Items intact: the merge counts them.
  merge_queue_->Push(std::move(item));
}

void ShardedPipelineEngine::MergeLoop() {
  // Reorder state lives on this thread; only the high-water mark and the
  // delivery counters are shared (under merge_mutex_).
  std::map<uint64_t, PendingMerge> pending;
  uint64_t next_sequence = 0;
  MergeItem item;
  while (merge_queue_->Pop(&item)) {
    PendingMerge& slot = pending[item.global_sequence];
    if (slot.expected == 0) {
      std::lock_guard<std::mutex> lock(merge_mutex_);
      slot.expected = expected_.at(item.global_sequence);
    }
    slot.contributions.push_back(std::move(item));
    {
      std::lock_guard<std::mutex> lock(merge_mutex_);
      max_merge_reorder_depth_ =
          std::max(max_merge_reorder_depth_, pending.size());
    }
    while (!pending.empty()) {
      std::map<uint64_t, PendingMerge>::iterator first = pending.begin();
      if (first->first != next_sequence ||
          first->second.contributions.size() < first->second.expected) {
        break;
      }
      std::vector<MergeItem> contributions =
          std::move(first->second.contributions);
      pending.erase(first);
      DeliverMerged(next_sequence, std::move(contributions));
      ++next_sequence;
    }
  }
}

void ShardedPipelineEngine::DeliverMerged(
    uint64_t global_sequence, std::vector<MergeItem> contributions) {
  std::sort(contributions.begin(), contributions.end(),
            [](const MergeItem& a, const MergeItem& b) {
              return a.shard < b.shard;
            });

  TripleWindow merged;
  merged.sequence = global_sequence;
  size_t upper_bound = 0;
  for (const MergeItem& contribution : contributions) {
    upper_bound += contribution.window.size();
  }
  merged.items.reserve(upper_bound);
  // Shed (tombstoned) sub-windows contribute their items — the merged
  // window is the full global window the oracle would have reasoned, so
  // sizes stay comparable — but no answers: the degradation shows up as
  // completeness < 1, not as a silently smaller window. Broadcast
  // replicas of duplicated predicates are skipped everywhere (merged
  // items, completeness numerator and denominator): each global item is
  // accounted once, at its owning shard, exactly as the unsharded
  // pipeline would hold it.
  const bool has_replicas = !duplicated_.empty();
  size_t total_items = 0;
  size_t reasoned_items = 0;
  size_t shed_contributions = 0;
  Status failure = OkStatus();
  for (MergeItem& contribution : contributions) {
    size_t owned = 0;
    for (Triple& item : contribution.window.items) {
      if (has_replicas && IsReplica(item, contribution.shard)) continue;
      merged.items.push_back(std::move(item));
      ++owned;
    }
    total_items += owned;
    if (contribution.shed) {
      ++shed_contributions;
      continue;
    }
    reasoned_items += owned;
    if (failure.ok() && !contribution.result.ok()) {
      failure = contribution.result.status();
    }
  }
  const double completeness =
      CompletenessRatio(reasoned_items, total_items);

  bool delivered = false;
  bool degraded = false;
  uint64_t answers = 0;
  if (failure.ok()) {
    WallTimer combine_timer;
    std::vector<std::vector<GroundAnswer>> per_shard;
    per_shard.reserve(contributions.size());
    for (MergeItem& contribution : contributions) {
      if (contribution.shed) continue;
      per_shard.push_back(std::move(contribution.result->answers));
    }
    // A fully shed global window combines nothing: deliver zero answer
    // sets (completeness says why) rather than Combine's vacuous empty
    // union.
    StatusOr<std::vector<GroundAnswer>> combined =
        per_shard.empty() ? std::vector<GroundAnswer>{}
                          : merge_combiner_.Combine(per_shard);
    if (!combined.ok()) {
      failure = combined.status();
    } else {
      // Cross-shard view of the per-shard measurements: the shards ran
      // concurrently, so wall-clock-like quantities take the max while
      // work-like quantities sum.
      ParallelReasonerResult result;
      result.answers = std::move(*combined);
      result.completeness = completeness;
      for (const MergeItem& contribution : contributions) {
        if (contribution.shed) continue;
        const ParallelReasonerResult& r = *contribution.result;
        result.latency_ms = std::max(result.latency_ms, r.latency_ms);
        result.partition_ms += r.partition_ms;
        result.reason_ms = std::max(result.reason_ms, r.reason_ms);
        result.combine_ms += r.combine_ms;
        result.critical_path_ms =
            std::max(result.critical_path_ms, r.critical_path_ms);
        result.num_partitions += r.num_partitions;
        result.partition_latency_ms.insert(result.partition_latency_ms.end(),
                                           r.partition_latency_ms.begin(),
                                           r.partition_latency_ms.end());
        result.total_partition_items += r.total_partition_items;
      }
      result.combine_ms += combine_timer.ElapsedMillis();
      answers = result.answers.size();
      degraded = completeness < 1.0;
      EmissionEvent event;
      event.sequence = global_sequence;
      event.window = &merged;
      event.result = &result;
      event.completeness = completeness;
      try {
        handler_(event);
        delivered = true;
      } catch (const std::exception& e) {
        STREAMASP_LOG(kError) << "global window " << global_sequence
                              << ": emission handler threw: " << e.what();
      } catch (...) {
        STREAMASP_LOG(kError) << "global window " << global_sequence
                              << ": emission handler threw";
      }
    }
  }
  if (!failure.ok()) {
    STREAMASP_LOG(kError) << "global window " << global_sequence << ": "
                          << failure;
    // Errors consume their slot in the emission stream too: consumers
    // (the session server) see why the window is missing. Counted as
    // merge_errors.
    EmissionEvent event;
    event.kind = EmissionEvent::Kind::kError;
    event.sequence = global_sequence;
    event.window = &merged;
    event.status = failure;
    event.completeness = 0.0;
    try {
      handler_(event);
    } catch (const std::exception& e) {
      STREAMASP_LOG(kError) << "global window " << global_sequence
                            << ": emission handler threw: " << e.what();
    } catch (...) {
      STREAMASP_LOG(kError) << "global window " << global_sequence
                            << ": emission handler threw";
    }
  }

  std::lock_guard<std::mutex> lock(merge_mutex_);
  expected_.erase(global_sequence);
  ++delivered_windows_;
  shed_subwindows_ += shed_contributions;
  if (delivered) {
    ++merged_windows_;
    merged_answers_ += answers;
    completeness_sum_ += completeness;
    min_completeness_ = std::min(min_completeness_, completeness);
    if (degraded) ++degraded_windows_;
  } else {
    ++merge_errors_;
  }
  if (delivered_windows_ == assigned_windows_) {
    merge_drained_cv_.notify_all();
  }
}

ShardedPipelineStats ShardedPipelineEngine::stats() const {
  ShardedPipelineStats out;
  out.per_shard.reserve(shards_.size());
  for (const std::unique_ptr<StreamRulePipeline>& shard : shards_) {
    const PipelineStats stats = shard->stats();
    out.aggregate.windows += stats.windows;
    out.aggregate.items += stats.items;
    out.aggregate.answers += stats.answers;
    out.aggregate.total_latency_ms += stats.total_latency_ms;
    out.aggregate.max_latency_ms =
        std::max(out.aggregate.max_latency_ms, stats.max_latency_ms);
    out.aggregate.total_critical_path_ms += stats.total_critical_path_ms;
    out.aggregate.errors += stats.errors;
    out.aggregate.enqueued_windows += stats.enqueued_windows;
    out.aggregate.dropped_windows += stats.dropped_windows;
    out.aggregate.rejected_windows += stats.rejected_windows;
    out.aggregate.shed_items += stats.shed_items;
    out.aggregate.max_queue_depth =
        std::max(out.aggregate.max_queue_depth, stats.max_queue_depth);
    out.aggregate.max_reorder_depth =
        std::max(out.aggregate.max_reorder_depth, stats.max_reorder_depth);
    out.aggregate.incremental_windows += stats.incremental_windows;
    out.aggregate.grounding_fallbacks += stats.grounding_fallbacks;
    out.aggregate.grounding_rules_retained += stats.grounding_rules_retained;
    out.aggregate.grounding_rules_retracted +=
        stats.grounding_rules_retracted;
    out.aggregate.grounding_rules_new += stats.grounding_rules_new;
    out.aggregate.incremental_solve_windows +=
        stats.incremental_solve_windows;
    out.aggregate.solve_rebuilds += stats.solve_rebuilds;
    out.aggregate.solver_rules_retained += stats.solver_rules_retained;
    out.aggregate.solver_rules_retracted += stats.solver_rules_retracted;
    out.aggregate.solver_rules_new += stats.solver_rules_new;
    out.aggregate.warm_start_hits += stats.warm_start_hits;
    out.aggregate.atoms_touched += stats.atoms_touched;
    out.aggregate.assignments_reused += stats.assignments_reused;
    out.aggregate.fixpoint_maintained_windows +=
        stats.fixpoint_maintained_windows;
    out.aggregate.total_ground_ms += stats.total_ground_ms;
    out.aggregate.total_solve_ms += stats.total_solve_ms;
    // Data-plane footprint: shard peaks coexist (they retain disjoint
    // splits of the same global window), so bytes sum; the per-shard
    // window-item peaks likewise sum to ~the global window size, which
    // keeps aggregate.bytes_per_triple() a per-global-triple figure.
    out.aggregate.window_store_bytes += stats.window_store_bytes;
    out.aggregate.atom_table_bytes += stats.atom_table_bytes;
    out.aggregate.max_window_items += stats.max_window_items;
    out.per_shard.push_back(stats);
  }
  out.aggregate.window_store_bytes +=
      router_window_bytes_.load(std::memory_order_relaxed);
  out.routed_items.reserve(routed_items_.size());
  for (const std::atomic<uint64_t>& routed : routed_items_) {
    out.routed_items.push_back(routed.load(std::memory_order_relaxed));
  }
  out.filtered_items = filtered_items_.load(std::memory_order_relaxed);
  out.broadcast_copies = broadcast_copies_.load(std::memory_order_relaxed);
  out.delta_punctuations =
      delta_punctuations_.load(std::memory_order_relaxed);
  out.skipped_empty_slices =
      skipped_empty_slices_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    out.merged_windows = merged_windows_;
    out.merged_answers = merged_answers_;
    out.merge_errors = merge_errors_;
    out.shed_subwindows = shed_subwindows_;
    out.degraded_windows = degraded_windows_;
    out.mean_completeness =
        merged_windows_ == 0 ? 1.0 : completeness_sum_ / merged_windows_;
    out.min_completeness = min_completeness_;
    out.max_merge_reorder_depth = max_merge_reorder_depth_;
  }
  if (merge_queue_ != nullptr) {
    out.max_merge_queue_depth = merge_queue_->stats().max_depth;
  }
  return out;
}

ShardKeyExtractor CommunityShardKey(const PartitioningPlan& plan) {
  return [plan](const Triple& triple) -> uint64_t {
    const PredicateSignature signature{
        triple.predicate, triple.object.has_value() ? 2u : 1u};
    const std::vector<int>& communities = plan.CommunitiesOf(signature);
    return communities.empty() ? 0
                               : static_cast<uint64_t>(communities.front());
  };
}

}  // namespace streamasp
