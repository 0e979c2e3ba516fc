#include "core/scorer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/check.h"
#include "common/thread_pool.h"

namespace umgad {

namespace {

double SigmoidD(double x) { return 1.0 / (1.0 + std::exp(-x)); }

uint64_t MixSeed(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

uint64_t NegativeStreamBase(Rng* rng) { return rng->NextU64(); }

uint64_t NegativeStreamSeed(uint64_t base, int view, int rel) {
  uint64_t h = MixSeed(base, 0x53455256454E4547ULL);  // "SERVENEG"
  h = MixSeed(h, static_cast<uint64_t>(view));
  return MixSeed(h, static_cast<uint64_t>(rel));
}

uint64_t NodeStreamSeed(uint64_t stream_seed, int node) {
  return MixSeed(stream_seed, static_cast<uint64_t>(node));
}

ResidualTerms NodeResidualTerms(const Tensor& z, int i, const int* neighbors,
                                int degree, const std::vector<int>& negatives) {
  ResidualTerms terms;
  terms.degree = degree;
  for (int k = 0; k < degree; ++k) {
    terms.edge_err += 1.0 - SigmoidD(z.RowDot(i, z, neighbors[k]));
  }
  if (!negatives.empty()) {
    for (int u : negatives) terms.leak += SigmoidD(z.RowDot(i, z, u));
    terms.leak /= static_cast<double>(negatives.size());
  }
  return terms;
}

std::vector<double> StructureResidual(const SparseMatrix& adj,
                                      const Tensor& z, int num_negatives,
                                      uint64_t stream_seed,
                                      bool degree_normalized) {
  const int n = adj.rows();
  std::vector<double> residual(n, 0.0);
  const auto& rp = adj.row_ptr();
  ParallelFor(n, kParallelRowGrain, [&](int64_t b, int64_t e) {
    for (int i = static_cast<int>(b); i < e; ++i) {
      const int degree = static_cast<int>(rp[i + 1] - rp[i]);
      const ResidualTerms terms = NodeResidualTerms(
          z, i, adj.col_idx().data() + rp[i], degree,
          NodeNegatives(adj, i, degree, num_negatives, stream_seed));
      // Raw row-norm estimate (the GAE papers' scorer) when not normalised.
      residual[i] = degree_normalized
                        ? terms.Normalized()
                        : terms.edge_err +
                              terms.leak * static_cast<double>(n - 1 - degree);
    }
  });
  return residual;
}

std::vector<double> StructureResidualExact(const SparseMatrix& adj,
                                           const Tensor& z) {
  const int n = adj.rows();
  std::vector<double> residual(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double edge_err = 0.0;
    double leak = 0.0;
    int degree = 0;
    int non_edges = 0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const double p = SigmoidD(z.RowDot(i, z, j));
      if (adj.Has(i, j)) {
        edge_err += 1.0 - p;
        ++degree;
      } else {
        leak += p;
        ++non_edges;
      }
    }
    residual[i] = (degree > 0 ? edge_err / degree : 0.0) +
                  (non_edges > 0 ? leak / non_edges : 0.0);
  }
  return residual;
}

// ---------------------------------------------------------------------------
// ExactMoments
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kDigitBase = int64_t{1} << 32;
constexpr uint64_t kDigitMask = 0xffffffffULL;
// A deposit moves any limb by less than 2^32 (AddShifted), so 2^26 of them
// between carries (and a Merge of two such states) stay far inside int64.
constexpr int64_t kMaxPending = int64_t{1} << 26;
// Values (nodes) per pool chunk of the moment and mix passes.
constexpr int64_t kNodeGrain = 4096;

/// Propagates carries so every limb but the last is a digit in [0, 2^32);
/// the last limb keeps the sign. The carried form of a value is unique.
template <size_t L>
void CarryLimbs(std::array<int64_t, L>* limbs) {
  for (size_t k = 0; k + 1 < L; ++k) {
    const int64_t carry = (*limbs)[k] >> 32;  // floor(limb / 2^32)
    (*limbs)[k] -= carry * kDigitBase;
    (*limbs)[k + 1] += carry;
  }
}

constexpr uint64_t kImplicitBit = uint64_t{1} << 52;
constexpr uint64_t kLow26 = (uint64_t{1} << 26) - 1;

/// limbs += sign * u * 2^bit in base-2^32 digits (u < 2^63); each limb
/// moves by less than 2^32.
template <size_t L>
void AddShifted(std::array<int64_t, L>* limbs, uint64_t u, int bit,
                int64_t sign) {
  const int idx = bit >> 5;
  const int sh = bit & 31;
  const uint64_t rest = u >> (32 - sh);  // (u << sh) >> 32
  int64_t* d = limbs->data() + idx;
  d[0] += sign * static_cast<int64_t>((u << sh) & kDigitMask);
  d[1] += sign * static_cast<int64_t>(rest & kDigitMask);
  d[2] += sign * static_cast<int64_t>(rest >> 32);
}

/// Magnitude digits of a long accumulator; returns true when negative.
template <size_t L>
bool ToMagnitude(std::array<int64_t, L> limbs, std::array<uint64_t, L>* mag) {
  CarryLimbs(&limbs);
  const bool negative = limbs[L - 1] < 0;
  if (negative) {
    for (int64_t& l : limbs) l = -l;
    CarryLimbs(&limbs);
  }
  // The limb counts leave headroom above any reachable sum, so the top
  // limb of a magnitude is a digit too.
  for (size_t k = 0; k < L; ++k) (*mag)[k] = static_cast<uint64_t>(limbs[k]);
  return negative;
}

int TopDigit(const uint64_t* d, int len) {
  int top = len - 1;
  while (top >= 0 && d[top] == 0) --top;
  return top;
}

int BitLength(uint64_t x) {
  int bits = 0;
  while (x != 0) {
    ++bits;
    x >>= 1;
  }
  return bits;
}

/// A non-zero number with digits d[0..len) (base 2^32) as w * 2^shift,
/// where w in [2^63, 2^64) holds its top 64 bits (lower bits dropped).
int TopWindow(const uint64_t* d, int len, uint64_t* w) {
  const int top = TopDigit(d, len);
  const int shift = 32 * top + BitLength(d[top]) - 64;
  auto digit = [&](int k) { return k < len ? d[k] : 0; };
  if (shift <= 0) {
    *w = (digit(0) | digit(1) << 32) << -shift;
    return shift;
  }
  const int k = shift >> 5;
  const int r = shift & 31;
  const uint64_t lo = d[k] | digit(k + 1) << 32;
  *w = r == 0 ? lo : (lo >> r) | digit(k + 2) << (64 - r);
  return shift;
}

}  // namespace

void ExactMoments::Deposit(const double* v, int64_t n, int64_t sign) {
  // Stage each block per binary exponent in plain 64-bit sums (kBlock
  // values keep every bucket below 2^63), then move each touched bucket
  // into the long accumulators once. Within a bucket the values are
  // m * 2^(off - 1074) with m = mh * 2^26 + ml, so their squares are
  // (mh^2 2^52 + mh ml 2^27 + ml^2) * 2^(2 off - 2148).
  struct Bucket {
    int64_t sum;
    uint64_t q2, q1, q0;
  };
  constexpr int64_t kBlock = 256;
  thread_local Bucket stage[2048] = {};  // all zero between blocks
  for (int64_t b = 0; b < n; b += kBlock) {
    const int64_t e = std::min(n, b + kBlock);
    int lo = 2047;
    int hi = 0;
    for (int64_t i = b; i < e; ++i) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v[i], sizeof(bits));
      const int biased = static_cast<int>(bits >> 52 & 0x7ff);
      const bool negative = (bits >> 63) != 0;
      const uint64_t frac = bits & (kImplicitBit - 1);
      if (biased == 0x7ff) {
        (frac != 0 ? nan_ : negative ? neg_inf_ : pos_inf_) += sign;
        continue;
      }
      const uint64_t mant = biased != 0 ? frac | kImplicitBit : frac;
      const int64_t m = static_cast<int64_t>(mant);
      const uint64_t mh = mant >> 26;
      const uint64_t ml = mant & kLow26;
      Bucket& bucket = stage[biased];
      bucket.sum += negative ? -m : m;
      bucket.q2 += mh * mh;
      bucket.q1 += mh * ml;
      bucket.q0 += ml * ml;
      lo = std::min(lo, mant != 0 ? biased : 2047);  // +-0 only counts
      hi = std::max(hi, biased);
    }
    count_ += sign * (e - b);
    for (int k = lo; k <= hi; ++k) {
      Bucket& bucket = stage[k];
      if (bucket.q2 == 0 && bucket.q0 == 0) continue;  // no non-zero value
      const int off = k == 0 ? 0 : k - 1;
      if (bucket.sum < 0) {
        AddShifted(&sum_, static_cast<uint64_t>(-bucket.sum), off, -sign);
      } else {
        AddShifted(&sum_, static_cast<uint64_t>(bucket.sum), off, sign);
      }
      AddShifted(&square_, bucket.q2, 2 * off + 52, sign);
      AddShifted(&square_, bucket.q1, 2 * off + 27, sign);
      AddShifted(&square_, bucket.q0, 2 * off, sign);
      bucket = Bucket{};
      pending_ += 4;
      if (pending_ > kMaxPending) Carry();
    }
  }
}

void ExactMoments::Carry() {
  CarryLimbs(&sum_);
  CarryLimbs(&square_);
  pending_ = 1;  // carried digits are bounded like one deposit
}

void ExactMoments::Merge(const ExactMoments& other) {
  count_ += other.count_;
  nan_ += other.nan_;
  pos_inf_ += other.pos_inf_;
  neg_inf_ += other.neg_inf_;
  for (int k = 0; k < kSumLimbs; ++k) sum_[k] += other.sum_[k];
  for (int k = 0; k < kSquareLimbs; ++k) square_[k] += other.square_[k];
  pending_ += other.pending_;
  if (pending_ > kMaxPending) Carry();
}

bool ExactMoments::operator==(const ExactMoments& other) const {
  if (count_ != other.count_ || nan_ != other.nan_ ||
      pos_inf_ != other.pos_inf_ || neg_inf_ != other.neg_inf_) {
    return false;
  }
  ExactMoments a = *this;
  ExactMoments b = other;
  a.Carry();
  b.Carry();
  return a.sum_ == b.sum_ && a.square_ == b.square_;
}

ZScore ExactMoments::Scale() const {
  ZScore z;
  if (count_ <= 0) return z;
  if (nan_ != 0 || pos_inf_ != 0 || neg_inf_ != 0) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    if (nan_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0)) {
      z.mean = nan;
    } else {
      z.mean = pos_inf_ != 0 ? inf : -inf;
    }
    z.stddev = nan;
    return z;
  }
  const uint64_t n = static_cast<uint64_t>(count_);
  UMGAD_CHECK_LT(n, uint64_t{1} << 32);

  // mean = sum / n from the top four quotient digits (>= 64 significant
  // bits). An exact quotient, e.g. a constant multiset's, comes out exact.
  std::array<uint64_t, kSumLimbs> s{};
  const bool negative = ToMagnitude(sum_, &s);
  const int s_top = TopDigit(s.data(), kSumLimbs);
  std::array<uint64_t, kSumLimbs> quot{};
  uint64_t rem = 0;
  for (int k = s_top; k >= 0 && k >= s_top - 3; --k) {
    const uint64_t cur = rem << 32 | s[k];
    quot[k] = cur / n;
    rem = cur % n;
  }
  if (TopDigit(quot.data(), kSumLimbs) >= 0) {
    uint64_t w = 0;
    const int shift = TopWindow(quot.data(), kSumLimbs, &w);
    const double mag = std::ldexp(static_cast<double>(w), shift - 1074);
    z.mean = negative ? -mag : mag;
  }

  // n^2 var * 2^2148 = n * sum(x^2) - (sum x)^2, exactly, in base-2^32
  // digits.
  constexpr int kWide = 2 * kSumLimbs;
  static_assert(kSquareLimbs + 1 < kWide, "room for n * sum(x^2)");
  std::array<uint64_t, kSquareLimbs> sq{};
  ToMagnitude(square_, &sq);
  std::array<uint64_t, kWide> v{};
  uint64_t carry = 0;
  for (int k = 0; k < kWide; ++k) {
    const uint64_t t = (k < kSquareLimbs ? sq[k] * n : 0) + carry;
    v[k] = t & kDigitMask;
    carry = t >> 32;
  }
  std::array<uint64_t, kWide> p{};
  int s_low = 0;
  while (s_low <= s_top && s[s_low] == 0) ++s_low;
  for (int i = s_low; i <= s_top; ++i) {
    carry = 0;
    for (int j = s_low; j <= s_top; ++j) {
      const uint64_t t = p[i + j] + s[i] * s[j] + carry;
      p[i + j] = t & kDigitMask;
      carry = t >> 32;
    }
    p[i + s_top + 1] = carry;
  }
  int64_t borrow = 0;
  for (int k = 0; k < kWide; ++k) {
    int64_t t = static_cast<int64_t>(v[k]) - static_cast<int64_t>(p[k]) -
                borrow;
    borrow = t < 0 ? 1 : 0;
    if (t < 0) t += kDigitBase;
    v[k] = static_cast<uint64_t>(t);
  }
  UMGAD_CHECK_EQ(borrow, 0);  // Cauchy-Schwarz: exact sums never go below
  if (TopDigit(v.data(), kWide) < 0) return z;  // constant: stddev 0

  // stddev = sqrt(v) / n * 2^-1074, with v's top bits at an even exponent.
  uint64_t w = 0;
  int shift = TopWindow(v.data(), kWide, &w);
  if (shift % 2 != 0) {
    w >>= 1;
    ++shift;
  }
  z.stddev = std::ldexp(std::sqrt(static_cast<double>(w)) /
                            static_cast<double>(n),
                        shift / 2 - 1074);
  return z;
}

ExactMoments MomentsOf(const double* v, int64_t n) {
  ExactMoments total;
  std::mutex mu;
  ParallelFor(n, kNodeGrain, [&](int64_t b, int64_t e) {
    ExactMoments local;
    local.AddAll(v + b, e - b);
    std::lock_guard<std::mutex> lock(mu);
    total.Merge(local);
  });
  return total;
}

std::vector<double> Standardize(const std::vector<double>& v) {
  const ZScore z = MomentsOf(v.data(), static_cast<int64_t>(v.size())).Scale();
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = z(v[i]);
  return out;
}

// ---------------------------------------------------------------------------
// Eq. 19
// ---------------------------------------------------------------------------

double RelationMean(const std::vector<std::vector<double>>& residual, int i) {
  const int r_count = static_cast<int>(residual.size());
  double mean = 0.0;
  for (int r = 0; r < r_count; ++r) mean += residual[r][i] / r_count;
  return mean;
}

double ScoreNode(const std::vector<ViewColumns>& views, float epsilon, int i) {
  double total = 0.0;
  int contributing = 0;
  for (const ViewColumns& v : views) {
    if (v.attr != nullptr && v.structure != nullptr) {
      total += epsilon * v.attr_z(v.attr[i]) +
               (1.0f - epsilon) * v.structure_z(v.structure[i]);
    } else if (v.attr != nullptr) {
      total += v.attr_z(v.attr[i]);
    } else if (v.structure != nullptr) {
      total += v.structure_z(v.structure[i]);
    } else {
      continue;
    }
    ++contributing;
  }
  UMGAD_CHECK_GT(contributing, 0);
  return total / contributing;
}

std::vector<double> ScoreAllNodes(const std::vector<ViewColumns>& views,
                                  float epsilon, int num_nodes) {
  std::vector<double> out(num_nodes);
  ParallelFor(num_nodes, kNodeGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      out[i] = ScoreNode(views, epsilon, static_cast<int>(i));
    }
  });
  return out;
}

ViewMoments BuildColumns(const ViewComponents& view, int num_nodes,
                         const std::vector<uint8_t>& owned, double* structure) {
  ViewMoments total;
  std::mutex mu;
  ParallelFor(num_nodes, kNodeGrain, [&](int64_t b, int64_t e) {
    std::vector<double> attr;
    std::vector<double> structure_local;
    for (int i = static_cast<int>(b); i < e; ++i) {
      if (!owned.empty() && owned[i] == 0) continue;
      if (view.attr_used) attr.push_back((*view.attr_val)[i]);
      if (view.struct_used) {
        structure[i] = RelationMean(*view.residual, i);
        structure_local.push_back(structure[i]);
      }
    }
    ViewMoments local;
    local.attr.AddAll(attr.data(), static_cast<int64_t>(attr.size()));
    local.structure.AddAll(structure_local.data(),
                           static_cast<int64_t>(structure_local.size()));
    std::lock_guard<std::mutex> lock(mu);
    total.attr.Merge(local.attr);
    total.structure.Merge(local.structure);
  });
  return total;
}

ViewColumns MakeColumns(const double* attr, const double* structure,
                        const ViewMoments& moments) {
  ViewColumns columns;
  columns.attr = attr;
  columns.structure = structure;
  if (attr != nullptr) columns.attr_z = moments.attr.Scale();
  if (structure != nullptr) columns.structure_z = moments.structure.Scale();
  return columns;
}

std::vector<double> CombineComponents(const std::vector<ViewComponents>& views,
                                      int num_nodes, int num_relations,
                                      float epsilon) {
  std::vector<std::vector<double>> structure(views.size());
  std::vector<ViewColumns> columns(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    const ViewComponents& vc = views[v];
    if (vc.struct_used) {
      UMGAD_CHECK_EQ(static_cast<int>(vc.residual->size()), num_relations);
      structure[v].resize(num_nodes);
    }
    const ViewMoments moments =
        BuildColumns(vc, num_nodes, {}, structure[v].data());
    columns[v] = MakeColumns(vc.attr_used ? vc.attr_val->data() : nullptr,
                             vc.struct_used ? structure[v].data() : nullptr,
                             moments);
  }
  return ScoreAllNodes(columns, epsilon, num_nodes);
}

std::vector<double> ComputeAnomalyScores(
    const MultiplexGraph& graph, const std::vector<ViewScoring>& views,
    float epsilon, int num_negatives, Rng* rng) {
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  const uint64_t base = NegativeStreamBase(rng);
  std::vector<std::vector<double>> attr(views.size());
  std::vector<std::vector<std::vector<double>>> residual(views.size());
  std::vector<ViewComponents> components(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    const ViewScoring& view = views[v];
    ViewComponents& vc = components[v];
    if (!view.attr_recon.empty()) {
      const Tensor dist = RowL2Distance(view.attr_recon, graph.attributes());
      attr[v].resize(n);
      for (int i = 0; i < n; ++i) attr[v][i] = dist.at(i, 0);
      vc.attr_used = true;
      vc.attr_val = &attr[v];
    }
    if (!view.embeddings.empty()) {
      UMGAD_CHECK_EQ(static_cast<int>(view.embeddings.size()), r_count);
      for (int r = 0; r < r_count; ++r) {
        residual[v].push_back(StructureResidual(
            graph.layer(r), view.embeddings[r], num_negatives,
            NegativeStreamSeed(base, static_cast<int>(v), r)));
      }
      vc.struct_used = true;
      vc.residual = &residual[v];
    }
  }
  return CombineComponents(components, n, r_count, epsilon);
}

}  // namespace umgad
