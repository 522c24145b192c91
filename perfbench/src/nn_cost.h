#ifndef PERFBENCH_NN_COST_H_
#define PERFBENCH_NN_COST_H_

// Computed (not measured) arithmetic and weight traffic of one OD query's
// forward pass on an ocode-memo miss, from the config's tensor sizes: the
// traffic CNN (core::ExternalFeaturesEncoder -> nn::TrafficCnn: three 3x3
// same-padded convolutions 1->4->8->8 channels over the pooled speed matrix,
// global average pool, projection), the external-features MLP, and the two
// MLPs of Eq. 19/20, plus the embedding rows gathered. A memo hit skips the
// CNN and the external MLP.

#include "core/deepod_config.h"
#include "core/encoders.h"

namespace perfbench {

struct NnCost {
  double flops = 0.0;  // 2 x multiply-accumulates
  double bytes = 0.0;  // fp64 weights and embedding rows read
};

inline NnCost QueryCost(const deepod::core::DeepOdConfig& c) {
  const double hw = static_cast<double>(c.max_speed_matrix_dim) *
                    static_cast<double>(c.max_speed_matrix_dim);
  const double conv_weights = 9.0 * (1 * 4 + 4 * 8 + 8 * 8);
  const double weather =
      static_cast<double>(deepod::core::ExternalFeaturesEncoder::kNumWeatherTypes);
  const double z9 = static_cast<double>(c.ds * 2 + c.dt + c.dm6 + 3);
  const double dense =
      8.0 * static_cast<double>(c.dtraf) +                                // proj
      (weather + static_cast<double>(c.dtraf) + 2.0) * static_cast<double>(c.dm5) +
      static_cast<double>(c.dm5 * c.dm6) +                                // ext MLP
      z9 * static_cast<double>(c.dm7) + static_cast<double>(c.dm7 * c.dm8) +  // MLP1
      static_cast<double>(c.dm8 * c.dm9) + static_cast<double>(c.dm9);   // MLP2
  NnCost cost;
  cost.flops = 2.0 * (hw * conv_weights + dense);
  cost.bytes = 8.0 * (conv_weights + dense + static_cast<double>(2 * c.ds + c.dt));
  return cost;
}

}  // namespace perfbench

#endif  // PERFBENCH_NN_COST_H_
