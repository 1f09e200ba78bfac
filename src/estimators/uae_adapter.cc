#include "estimators/uae_adapter.h"

namespace uae::estimators {

double UaeAdapter::EstimateCard(const workload::Query& query) const {
  return uae_->EstimateCard(query);
}

std::vector<double> UaeAdapter::EstimateCards(
    std::span<const workload::Query> queries) const {
  return uae_->EstimateCards(queries);
}

}  // namespace uae::estimators
