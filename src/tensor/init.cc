#include "tensor/init.h"

#include <cmath>

namespace umgad {

Tensor XavierUniform(int rows, int cols, Rng* rng) {
  const double a = std::sqrt(6.0 / (rows + cols));
  return RandomUniform(rows, cols, -a, a, rng);
}

Tensor RandomNormal(int rows, int cols, double mean, double stddev, Rng* rng) {
  Tensor t(rows, cols);
  float* d = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    d[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

Tensor RandomUniform(int rows, int cols, double lo, double hi, Rng* rng) {
  Tensor t(rows, cols);
  float* d = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    d[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

}  // namespace umgad
