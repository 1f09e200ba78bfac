#include "serve/service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/threadpool.h"

namespace uae::serve {

EstimationService::EstimationService(
    std::shared_ptr<const core::ServableModel> initial_model,
    const ServiceConfig& config)
    : config_(config),
      slot_(ModelSnapshot{0, std::move(initial_model)}),
      cache_(config.cache),
      queue_(config.queue_capacity, config.max_batch,
             std::chrono::microseconds(config.max_wait_us)) {
  UAE_CHECK(CurrentSnapshot()->model != nullptr);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

EstimationService::~EstimationService() {
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServeResult EstimationService::EstimateInline(const EstimateRequest& request) {
  std::shared_ptr<const ModelSnapshot> snap = slot_.Current();
  if (config_.cache_enabled) {
    if (auto v = cache_.Lookup(request.fingerprint, snap->generation)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      CountAnswered(snap->generation, 1);
      return {*v, snap->generation, true};
    }
  }
  double card;
  if (request.join_mask != 0) {
    card = snap->model->EstimateJoinCard(
        workload::JoinQuery{request.join_mask, request.query});
  } else {
    card = snap->model->EstimateCard(request.query);
  }
  if (config_.cache_enabled) {
    cache_.Insert(request.fingerprint, snap->generation, card);
  }
  CountAnswered(snap->generation, 1);
  return {card, snap->generation, false};
}

void EstimationService::CountAnswered(uint64_t generation, uint64_t count) {
  // Stripe by caller thread: concurrent clients bump disjoint maps.
  GenerationStripe& stripe = generation_stripes_[std::hash<std::thread::id>{}(
                                                     std::this_thread::get_id()) &
                                                 (kGenerationStripes - 1)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.answered[generation] += count;
}

std::vector<std::pair<uint64_t, uint64_t>>
EstimationService::AnsweredByGeneration() const {
  std::map<uint64_t, uint64_t> merged;
  for (const GenerationStripe& stripe : generation_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [gen, count] : stripe.answered) merged[gen] += count;
  }
  return {merged.begin(), merged.end()};
}

uint64_t EstimationService::AnsweredForGeneration(uint64_t generation) const {
  uint64_t total = 0;
  for (const GenerationStripe& stripe : generation_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.answered.find(generation);
    if (it != stripe.answered.end()) total += it->second;
  }
  return total;
}

namespace {

std::future<ServeResult> ReadyFuture(ServeResult result) {
  std::promise<ServeResult> ready;
  ready.set_value(result);
  return ready.get_future();
}

}  // namespace

std::future<ServeResult> EstimationService::Submit(EstimateRequest request) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Fast path: answered from the cache against the current snapshot without
  // touching the queue.
  if (config_.cache_enabled) {
    std::shared_ptr<const ModelSnapshot> snap = slot_.Current();
    if (auto v = cache_.Lookup(request.fingerprint, snap->generation)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      CountAnswered(snap->generation, 1);
      return ReadyFuture({*v, snap->generation, true});
    }
  }

  // A global-pool worker must never block on the dispatcher: the dispatcher
  // fans batches across that same pool, so parking workers on service futures
  // could leave no one to run the batch. Answer on the calling thread.
  if (util::GlobalPool().InThisPool()) {
    inline_requests_.fetch_add(1, std::memory_order_relaxed);
    return ReadyFuture(EstimateInline(request));
  }

  std::future<ServeResult> queued_future = request.promise.get_future();
  if (!queue_.Push(std::move(request))) {
    // Service is shutting down; degrade to an inline answer. A refused Push
    // leaves `request` untouched, so its promise still backs the future.
    inline_requests_.fetch_add(1, std::memory_order_relaxed);
    request.promise.set_value(EstimateInline(request));
  }
  return queued_future;
}

std::future<ServeResult> EstimationService::EstimateAsync(
    const workload::Query& query) {
  EstimateRequest request;
  request.query = query;
  request.fingerprint = query.Fingerprint();
  return Submit(std::move(request));
}

std::future<ServeResult> EstimationService::EstimateJoinAsync(
    const workload::JoinQuery& query) {
  EstimateRequest request;
  request.query = query.pred;
  request.join_mask = query.table_mask;
  request.fingerprint = workload::JoinFingerprint(query);
  return Submit(std::move(request));
}

ServeResult EstimationService::Estimate(const workload::Query& query) {
  return EstimateAsync(query).get();
}

ServeResult EstimationService::EstimateJoin(const workload::JoinQuery& query) {
  return EstimateJoinAsync(query).get();
}

uint64_t EstimationService::PublishSnapshot(
    std::shared_ptr<const core::ServableModel> model) {
  UAE_CHECK(model != nullptr);
  uint64_t generation = slot_.Publish(ModelSnapshot{0, std::move(model)});
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  cache_.EvictBelowGeneration(generation);
  return generation;
}

void EstimationService::DispatchLoop() {
  for (;;) {
    std::vector<EstimateRequest> batch = queue_.PopBatch();
    if (batch.empty()) return;  // Closed and drained.
    RunBatch(std::move(batch));
  }
}

void EstimationService::RunBatch(std::vector<EstimateRequest> batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  uint64_t size = static_cast<uint64_t>(batch.size());
  uint64_t seen = max_batch_observed_.load(std::memory_order_relaxed);
  while (size > seen &&
         !max_batch_observed_.compare_exchange_weak(seen, size,
                                                    std::memory_order_relaxed)) {
  }

  // Queue-wait accounting: how long each request sat between Push and this
  // dispatch (the latency the queue's deadline bounds).
  const auto dispatched_at = std::chrono::steady_clock::now();
  for (const EstimateRequest& request : batch) {
    const auto wait = dispatched_at - request.enqueued_at;
    queue_latency_.Record(static_cast<uint64_t>(std::max<int64_t>(
        0,
        std::chrono::duration_cast<std::chrono::microseconds>(wait).count())));
  }

  // The whole batch runs against ONE snapshot — grabbed once, held to the
  // end — so every response in it is attributable to a single generation
  // even if a publish lands mid-batch.
  std::shared_ptr<const ModelSnapshot> snap = slot_.Current();
  const uint64_t generation = snap->generation;

  std::vector<ServeResult> results(batch.size());
  std::vector<size_t> miss_index;
  std::vector<workload::Query> miss_queries;
  std::vector<size_t> join_miss_index;
  std::vector<workload::JoinQuery> join_miss_queries;
  miss_index.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Re-check the cache under the batch snapshot: an earlier batch (or an
    // inline caller) may have filled the entry since this request enqueued.
    // Duplicates inside one batch are simply evaluated twice — estimates are
    // pure functions of (model, query), so both copies come out identical.
    if (config_.cache_enabled) {
      if (auto v = cache_.Lookup(batch[i].fingerprint, generation)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        results[i] = {*v, generation, true};
        continue;
      }
    }
    // One queue, two model entry points: join sub-plans and single-table
    // queries coalesce into the same micro-batch but fan out separately.
    if (batch[i].join_mask != 0) {
      join_miss_index.push_back(i);
      join_miss_queries.push_back(
          workload::JoinQuery{batch[i].join_mask, batch[i].query});
    } else {
      miss_index.push_back(i);
      miss_queries.push_back(batch[i].query);
    }
  }

  if (!miss_queries.empty()) {
    std::vector<double> cards = snap->model->EstimateCards(miss_queries);
    batched_queries_.fetch_add(static_cast<uint64_t>(miss_queries.size()),
                               std::memory_order_relaxed);
    for (size_t m = 0; m < miss_index.size(); ++m) {
      results[miss_index[m]] = {cards[m], generation, false};
      if (config_.cache_enabled) {
        cache_.Insert(batch[miss_index[m]].fingerprint, generation, cards[m]);
      }
    }
  }

  if (!join_miss_queries.empty()) {
    std::vector<double> cards = snap->model->EstimateJoinCards(join_miss_queries);
    batched_queries_.fetch_add(static_cast<uint64_t>(join_miss_queries.size()),
                               std::memory_order_relaxed);
    for (size_t m = 0; m < join_miss_index.size(); ++m) {
      results[join_miss_index[m]] = {cards[m], generation, false};
      if (config_.cache_enabled) {
        cache_.Insert(batch[join_miss_index[m]].fingerprint, generation,
                      cards[m]);
      }
    }
  }

  CountAnswered(generation, static_cast<uint64_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(results[i]);
  }
}

ServiceStats EstimationService::Stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.inline_requests = inline_requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  s.max_batch_observed = max_batch_observed_.load(std::memory_order_relaxed);
  s.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace uae::serve
