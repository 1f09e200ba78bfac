// Sharded estimation walkthrough: partition a table, train one model per
// shard in parallel, compare pruned vs full fan-out on partition-targeted
// queries, then localize drift repair to a single shard.
//
//   ./example_sharded_estimation
#include <cstdio>
#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "serve/service.h"
#include "shard/sharded_uae.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

using namespace uae;

int main() {
  // 1. A DMV-shaped table, partitioned on its largest-domain column into 4
  //    equi-depth range shards.
  data::Table table = data::SyntheticDmv(12000, 7);
  shard::ShardedUaeConfig config;
  config.partition.num_shards = 4;
  config.base.hidden = 32;
  config.base.ps_samples = 100;
  config.base.seed = 11;

  auto model = std::make_shared<shard::ShardedUae>(table, config);
  const shard::HorizontalPartitioner& part = model->partitioner();
  std::printf("partitioned '%s' (%zu rows) on column %d into %d shards:\n",
              table.name().c_str(), table.num_rows(), part.partition_col(),
              model->num_shards());
  for (int s = 0; s < model->num_shards(); ++s) {
    std::printf("  shard %d: codes [%d, %d], %zu rows\n", s,
                part.shard(s).code_lo, part.shard(s).code_hi, part.shard(s).rows);
  }

  // 2. Train every shard (fanned across the thread pool).
  util::Stopwatch train_timer;
  model->TrainDataEpochs(3);
  std::printf("trained %d shard models in %.1fs (%zu KB total)\n",
              model->num_shards(), train_timer.ElapsedSeconds(),
              model->SizeBytes() >> 10);

  // 3. Partition-targeted queries: pruning answers each from O(1) shards.
  workload::GeneratorConfig gc;
  gc.bounded_col = part.partition_col();
  gc.target_volume = 0.02;
  gc.min_filters = 2;
  gc.max_filters = 4;
  workload::QueryGenerator gen(table, gc, 13);
  std::vector<workload::Query> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(gen.Generate());

  util::Stopwatch pruned_timer;
  std::vector<double> pruned = model->EstimateCards(queries);
  double pruned_s = pruned_timer.ElapsedSeconds();
  model->set_prune(false);
  util::Stopwatch full_timer;
  std::vector<double> full = model->EstimateCards(queries);
  double full_s = full_timer.ElapsedSeconds();
  model->set_prune(true);

  double pruned_err = 0, full_err = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    double truth = static_cast<double>(workload::ExecuteCount(table, queries[i]));
    pruned_err += workload::QError(pruned[i], truth);
    full_err += workload::QError(full[i], truth);
  }
  std::printf("pruned fan-out : %.2fs (%.1fx faster), mean q-error %.2f\n",
              pruned_s, full_s / pruned_s,
              pruned_err / static_cast<double>(queries.size()));
  std::printf("full fan-out   : %.2fs, mean q-error %.2f\n", full_s,
              full_err / static_cast<double>(queries.size()));

  // 4. Serve it: a sharded snapshot hot-swaps like any other model.
  serve::EstimationService service(model);
  serve::ServeResult first = service.Estimate(queries[0]);
  std::printf("served generation %llu: card %.1f\n",
              static_cast<unsigned long long>(first.generation), first.card);

  // 5. Drift localized to one shard: fine-tune feedback aimed at one
  //    partition refits exactly one model, then hot-swap the result.
  const int pcol = part.partition_col();
  const int32_t domain = table.column(pcol).domain();
  const int target = part.ShardForCode(domain / 2);
  workload::Workload feedback;
  for (int32_t code = part.shard(target).code_lo;
       code <= part.shard(target).code_hi && feedback.size() < 32; code += 2) {
    workload::LabeledQuery lq;
    lq.query = workload::Query(table.num_cols());
    lq.query.AddPredicate({pcol, workload::Op::kEq, code, {}}, domain);
    lq.card = static_cast<double>(workload::ExecuteCount(table, lq.query));
    feedback.push_back(lq);
  }
  std::shared_ptr<shard::ShardedServable> candidate = model->Clone();
  core::FineTuneSpec spec;
  spec.query_steps = 40;
  size_t used = candidate->FineTune(feedback, spec);
  uint64_t published = service.PublishSnapshot(candidate);
  std::printf("fine-tuned shard %d only (%zu feedback queries) and published "
              "generation %llu\n",
              target, used, static_cast<unsigned long long>(published));
  return 0;
}
