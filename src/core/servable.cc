#include "core/servable.h"

#include "util/common.h"
#include "workload/join_workload.h"

namespace uae::core {

std::vector<double> ServableModel::EstimateCards(
    std::span<const workload::Query> queries) const {
  std::vector<double> cards;
  cards.reserve(queries.size());
  for (const workload::Query& q : queries) cards.push_back(EstimateCard(q));
  return cards;
}

// Defaults for models without a join universe: reaching these is a caller
// bug (the serving layer checks SupportsJoinQueries() before routing).
double ServableModel::EstimateJoinCard(const workload::JoinQuery& query) const {
  (void)query;
  UAE_CHECK(false) << "EstimateJoinCard on a model without join support";
  return 0.0;
}

std::vector<double> ServableModel::EstimateJoinCards(
    std::span<const workload::JoinQuery> queries) const {
  (void)queries;
  UAE_CHECK(false) << "EstimateJoinCards on a model without join support";
  return {};
}

void ServableModel::IngestDataRows(const data::Table& delta, int epochs) {
  (void)delta;
  (void)epochs;
  UAE_CHECK(false) << "IngestDataRows on a model without data ingest";
}

}  // namespace uae::core
