#ifndef UMGAD_TENSOR_INIT_H_
#define UMGAD_TENSOR_INIT_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace umgad {

/// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
/// The default initialiser for linear/GNN weights.
Tensor XavierUniform(int rows, int cols, Rng* rng);

/// N(mean, stddev) entries; used for fusion logits and [MASK] tokens
/// ("initially randomized using a normal distribution", Sec. IV-A).
Tensor RandomNormal(int rows, int cols, double mean, double stddev, Rng* rng);

/// U(lo, hi) entries.
Tensor RandomUniform(int rows, int cols, double lo, double hi, Rng* rng);

}  // namespace umgad

#endif  // UMGAD_TENSOR_INIT_H_
