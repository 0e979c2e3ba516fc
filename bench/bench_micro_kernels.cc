// Kernel microbenchmarks backing the complexity analysis of Sec. IV-F and
// the performance playbook (docs/PERFORMANCE.md): SpMM (the GMAE
// propagation kernel), dense MatMul (the projection kernel — naive
// reference vs the blocked/parallel kernel, with a thread sweep), GAT
// attention, RWR sampling, AUC, and the threshold selector.
//
// Thread-sweep benches take the lane count as their argument and resize the
// global pool around the timing loop; everything else runs at whatever
// UMGAD_THREADS selects.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scorer.h"
#include "core/threshold.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "graph/graph_ops.h"
#include "graph/random_walk.h"
#include "nn/gcn.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace umgad {
namespace {

/// GFLOP/s counter for an (m,k,n) product (2 flops per multiply-add).
void SetMatMulCounters(benchmark::State& state, int64_t m, int64_t k,
                       int64_t n) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * m * k * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

SparseMatrix RandomAdj(int n, int mean_degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  const int64_t count = static_cast<int64_t>(n) * mean_degree / 2;
  for (int64_t k = 0; k < count; ++k) {
    int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u != v) edges.push_back(Edge{u, v});
  }
  return SparseMatrix::FromEdges(n, edges, true);
}

void BM_Spmm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(1)));
  SparseMatrix adj = RandomAdj(n, 8, 1).NormalizedWithSelfLoops();
  Rng rng(2);
  Tensor x = RandomNormal(n, 48, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_Spmm)
    ->Args({1000, 1})
    ->Args({4000, 1})
    ->Args({16000, 1})
    ->Args({16000, 4})
    ->UseRealTime();

// Tall-skinny GMAE projection shape (N x 32 times 32 x 48): the per-layer
// X*W product. Naive reference vs blocked kernel.
void BM_MatMulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Tensor a = RandomNormal(n, 32, 0, 1, &rng);
  Tensor b = RandomNormal(32, 48, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulNaive(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * 32 * 48);
  SetMatMulCounters(state, n, 32, 48);
}
BENCHMARK(BM_MatMulNaive)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Tensor a = RandomNormal(n, 32, 0, 1, &rng);
  Tensor b = RandomNormal(32, 48, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * 32 * 48);
  SetMatMulCounters(state, n, 32, 48);
}
BENCHMARK(BM_MatMul)->Arg(1000)->Arg(4000)->Arg(16000);

// Square 512^3 case from the acceptance bar of the kernel rewrite: naive
// baseline, then the blocked kernel across pool sizes.
void BM_MatMul512Naive(benchmark::State& state) {
  Rng rng(3);
  Tensor a = RandomNormal(512, 512, 0, 1, &rng);
  Tensor b = RandomNormal(512, 512, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulNaive(a, b));
  }
  SetMatMulCounters(state, 512, 512, 512);
}
BENCHMARK(BM_MatMul512Naive);

void BM_MatMul512(benchmark::State& state) {
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(3);
  Tensor a = RandomNormal(512, 512, 0, 1, &rng);
  Tensor b = RandomNormal(512, 512, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetMatMulCounters(state, 512, 512, 512);
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_MatMul512)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The fit-sparse epoch's dense products, at DG-Fin's 37,000 nodes: the
// input projection X*W (37000x32 . 32x48) and the hidden projection H*W
// (37000x48 . 48x32), whose 32- and 48-column outputs are narrower than
// one 64-column tile of a panel-packing kernel. Args: {k, n, lanes}.
void BM_MatMulNarrow(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(2)));
  Rng rng(3);
  Tensor a = RandomNormal(37000, k, 0, 1, &rng);
  Tensor b = RandomNormal(k, n, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetMatMulCounters(state, 37000, k, n);
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_MatMulNarrow)
    ->Args({32, 48, 1})
    ->Args({32, 48, 4})
    ->Args({48, 32, 1})
    ->Args({48, 32, 4})
    ->UseRealTime();

// The matching weight gradient X^T g (37000x32)^T . (37000x48): depth is
// the node count, the output one 32x48 block. Args: {m, n, lanes}.
void BM_MatMulTransANarrow(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(2)));
  Rng rng(3);
  Tensor a = RandomNormal(37000, m, 0, 1, &rng);
  Tensor g = RandomNormal(37000, n, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, g));
  }
  SetMatMulCounters(state, m, 37000, n);
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_MatMulTransANarrow)
    ->Args({32, 48, 1})
    ->Args({32, 48, 4})
    ->Args({48, 32, 1})
    ->Args({48, 32, 4})
    ->UseRealTime();

void BM_GatAttention(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto adj = std::make_shared<const SparseMatrix>(
      RandomAdj(n, 8, 4).NormalizedWithSelfLoops());
  Rng rng(5);
  // Persistent: the inputs must survive the per-iteration tape rewind that
  // reclaims each iteration's op node.
  ag::VarPtr x = ag::PersistentConstant(RandomNormal(n, 32, 0, 1, &rng));
  ag::VarPtr w = ag::PersistentConstant(RandomNormal(32, 48, 0, 1, &rng));
  ag::VarPtr a_src = ag::PersistentConstant(RandomNormal(1, 48, 0, 1, &rng));
  ag::VarPtr a_dst = ag::PersistentConstant(RandomNormal(1, 48, 0, 1, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ag::GatAttention(x, w, a_src, a_dst, adj, 0.2f));
    ag::Tape::Global().Reset();
  }
}
BENCHMARK(BM_GatAttention)->Arg(1000)->Arg(4000);

// The Spmm backward kernel: the seed's serial scatter vs the transposed-
// index row-parallel rewrite (bit-identical; see tests/sparse_test.cc).
void BM_SpmmTransposedNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SparseMatrix adj = RandomAdj(n, 8, 1).NormalizedWithSelfLoops();
  Rng rng(2);
  Tensor x = RandomNormal(n, 48, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.MultiplyTransposedNaive(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmTransposedNaive)->Arg(4000)->Arg(16000);

void BM_SpmmTransposed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(1)));
  SparseMatrix adj = RandomAdj(n, 8, 1).NormalizedWithSelfLoops();
  adj.EnsureTransposedIndex();  // steady-state cost: index built once
  Rng rng(2);
  Tensor x = RandomNormal(n, 48, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.MultiplyTransposed(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_SpmmTransposed)
    ->Args({4000, 1})
    ->Args({16000, 1})
    ->Args({16000, 4})
    ->UseRealTime();

// One full training step (forward + backward + Adam) of a 2-layer GCN
// autoencoder on the arena tape, with Tape::Reset() between steps — the
// shape of every hot loop in the library. Counters report the allocator
// traffic the arena removes: fresh tensor bytes and new slabs per step
// (both ~0 in steady state with the arena on, arg=1; every step reallocates
// with it off, arg=0).
void BM_TapeTrainStep(benchmark::State& state) {
  const bool arena = state.range(0) != 0;
  const bool prev_arena = ArenaEnabled();
  SetArenaEnabled(arena);
  const int n = 4000;
  const int f = 32;
  auto adj = std::make_shared<const SparseMatrix>(
      RandomAdj(n, 8, 11).NormalizedWithSelfLoops());
  Rng rng(12);
  Tensor x = RandomNormal(n, f, 0, 1, &rng);
  nn::SgcConv enc(f, 48, 1, nn::Activation::kRelu, &rng);
  nn::SgcConv dec(48, f, 1, nn::Activation::kNone, &rng);
  std::vector<ag::VarPtr> params = enc.Parameters();
  for (auto& p : dec.Parameters()) params.push_back(p);
  nn::Adam opt(params, 1e-3f);

  // Warm the pool/slabs so the counters report steady state.
  for (int i = 0; i < 2; ++i) {
    ag::Tape::Global().Reset();
    opt.ZeroGrad();
    ag::VarPtr recon = dec.Forward(adj, enc.Forward(adj, ag::Constant(x)));
    ag::Backward(ag::MseLoss(recon, x));
    opt.Step();
  }
  const int64_t fresh0 = TensorPool::Global().stats().fresh_bytes;
  const int64_t slabs0 = ag::Tape::Global().stats().node_slabs;
  for (auto _ : state) {
    ag::Tape::Global().Reset();
    opt.ZeroGrad();
    ag::VarPtr recon = dec.Forward(adj, enc.Forward(adj, ag::Constant(x)));
    ag::Backward(ag::MseLoss(recon, x));
    opt.Step();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["fresh_MB/step"] =
      static_cast<double>(TensorPool::Global().stats().fresh_bytes - fresh0) /
      (1024.0 * 1024.0) / iters;
  state.counters["new_slabs/step"] =
      static_cast<double>(ag::Tape::Global().stats().node_slabs - slabs0) /
      iters;
  ag::Tape::Global().Reset();
  SetArenaEnabled(prev_arena);
}
BENCHMARK(BM_TapeTrainStep)->Arg(0)->Arg(1)->UseRealTime();

// The edge-softmax backward kernel (the GAT attention gradient): the
// seed's serial scatter vs the incoming-index owner-partitioned rewrite
// (bit-identical; see tests/ops_oracle_test.cc). Forward state is computed
// once; the timing loop runs only the backward kernel, accumulating into
// reused buffers exactly as the tape closure does.
void BM_EdgeSoftmaxBackwardNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SparseMatrix adj = RandomAdj(n, 8, 21).NormalizedWithSelfLoops();
  Rng rng(22);
  Tensor h = RandomNormal(n, 48, 0, 0.5, &rng);
  Tensor a_src = RandomNormal(1, 48, 0, 0.5, &rng);
  Tensor a_dst = RandomNormal(1, 48, 0, 0.5, &rng);
  Tensor g = RandomNormal(n, 48, 0, 1, &rng);
  Tensor out;
  std::vector<float> alpha;
  std::vector<char> pos;
  ag::EdgeSoftmaxForward(adj, 0.2f, h, a_src, a_dst, &out, &alpha, &pos);
  Tensor dh(n, 48);
  Tensor das(1, 48);
  Tensor dad(1, 48);
  ag::EdgeSoftmaxGrads io;
  io.g = &g;
  io.h = &h;
  io.a_src = &a_src;
  io.a_dst = &a_dst;
  io.dh = &dh;
  io.da_src = &das;
  io.da_dst = &dad;
  for (auto _ : state) {
    ag::EdgeSoftmaxBackwardNaive(adj, 0.2f, alpha, pos, io);
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_EdgeSoftmaxBackwardNaive)->Arg(4000)->Arg(16000);

void BM_EdgeSoftmaxBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(1)));
  SparseMatrix adj = RandomAdj(n, 8, 21).NormalizedWithSelfLoops();
  adj.EnsureIncomingIndex();  // steady-state cost: index built once
  Rng rng(22);
  Tensor h = RandomNormal(n, 48, 0, 0.5, &rng);
  Tensor a_src = RandomNormal(1, 48, 0, 0.5, &rng);
  Tensor a_dst = RandomNormal(1, 48, 0, 0.5, &rng);
  Tensor g = RandomNormal(n, 48, 0, 1, &rng);
  Tensor out;
  std::vector<float> alpha;
  std::vector<char> pos;
  ag::EdgeSoftmaxForward(adj, 0.2f, h, a_src, a_dst, &out, &alpha, &pos);
  Tensor dh(n, 48);
  Tensor das(1, 48);
  Tensor dad(1, 48);
  ag::EdgeSoftmaxGrads io;
  io.g = &g;
  io.h = &h;
  io.a_src = &a_src;
  io.a_dst = &a_dst;
  io.dh = &dh;
  io.da_src = &das;
  io.da_dst = &dad;
  for (auto _ : state) {
    ag::EdgeSoftmaxBackward(adj, 0.2f, alpha, pos, io);
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_EdgeSoftmaxBackward)
    ->Args({4000, 1})
    ->Args({16000, 1})
    ->Args({16000, 4})
    ->UseRealTime();

// One perturbed operator as a training epoch builds it K x R times per
// view (core/views.cc): a 30% edge mask drawn from a relation, then the
// GCN normalisation of what remains. The relation is Amazon's U-S-U layer
// (1,194 nodes, 66,632 undirected edges), the densest layer of the
// edge-bound fit-dense workload. Both steps write their CSR straight from
// the parent's sorted rows.
void BM_PerturbedOperator(benchmark::State& state) {
  const MultiplexGraph graph = MakeAmazon(1);
  const SparseMatrix& adj = graph.layer(1);
  Rng rng(41);
  for (auto _ : state) {
    EdgeMask mask = SampleEdgeMask(adj, 0.3, &rng);
    benchmark::DoNotOptimize(mask.remaining.NormalizedWithSelfLoops());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_PerturbedOperator);

// One relation's sampled structure residual (Eq. 19) on a DG-Fin-like
// layer: 37,000 nodes of mean degree ~1 (many isolated), 48-wide
// embeddings, 16 negatives per node — 17 short double dot products per
// node on average. Arg: lanes.
void BM_StructureResidual(benchmark::State& state) {
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(0)));
  const int n = 37000;
  SparseMatrix adj = RandomAdj(n, 1, 43);
  Rng rng(44);
  Tensor z = RandomNormal(n, 48, 0, 0.3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StructureResidual(adj, z, 16, 45));
  }
  state.SetItemsProcessed(state.iterations() * (adj.nnz() + int64_t{n} * 16));
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_StructureResidual)->Arg(1)->Arg(4)->UseRealTime();

// Per-loss forward+backward steps on the arena tape (Tape::Reset between
// steps), with the allocator-traffic counter from BM_TapeTrainStep. Args
// are {lanes, naive}: naive=1 runs the kept-serial oracle op (the seed's
// loops) for the before/after comparison. These are the three closures
// ROADMAP item 2 called out as the last serial hot paths.
template <typename MakeLoss, typename MakeLossNaive>
void LossStepBench(benchmark::State& state, std::vector<ag::VarPtr> leaves,
                   const MakeLoss& make_loss,
                   const MakeLossNaive& make_loss_naive) {
  const bool naive = state.range(1) != 0;
  const int prev_threads = NumThreads();
  SetNumThreads(static_cast<int>(state.range(0)));
  auto step = [&] {
    ag::Tape::Global().Reset();
    for (auto& leaf : leaves) leaf->ZeroGrad();
    ag::Backward(naive ? make_loss_naive() : make_loss());
  };
  for (int i = 0; i < 2; ++i) step();  // warm the pool/slabs
  const int64_t fresh0 = TensorPool::Global().stats().fresh_bytes;
  for (auto _ : state) step();
  state.counters["fresh_MB/step"] =
      static_cast<double>(TensorPool::Global().stats().fresh_bytes - fresh0) /
      (1024.0 * 1024.0) / static_cast<double>(state.iterations());
  ag::Tape::Global().Reset();
  SetNumThreads(prev_threads);
}

void BM_ScaledCosineLossStep(benchmark::State& state) {
  const int n = 16000;
  Rng rng(31);
  ag::VarPtr recon = ag::Leaf(RandomNormal(n, 48, 0, 1, &rng));
  Tensor target = RandomNormal(n, 48, 0, 1, &rng);
  std::vector<int> idx;
  for (int i = 0; i < n; i += 3) idx.push_back(i);  // ~mask_ratio 0.3
  LossStepBench(
      state, {recon},
      [&] { return ag::ScaledCosineLoss(recon, target, idx, 2.0f); },
      [&] { return ag::ScaledCosineLossNaive(recon, target, idx, 2.0f); });
}
BENCHMARK(BM_ScaledCosineLossStep)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({4, 0})
    ->UseRealTime();

void BM_MaskedEdgeSoftmaxCeStep(benchmark::State& state) {
  const int n = 16000;
  Rng rng(32);
  ag::VarPtr z = ag::Leaf(RandomNormal(n, 48, 0, 0.5, &rng));
  std::vector<ag::EdgeCandidateSet> sets =
      nn::RandomEdgeCandidates(n, 2048, 4, &rng);
  LossStepBench(
      state, {z}, [&] { return ag::MaskedEdgeSoftmaxCE(z, sets); },
      [&] { return ag::MaskedEdgeSoftmaxCENaive(z, sets); });
}
BENCHMARK(BM_MaskedEdgeSoftmaxCeStep)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({4, 0})
    ->UseRealTime();

void BM_DualContrastiveLossStep(benchmark::State& state) {
  const int n = 16000;
  Rng rng(33);
  ag::VarPtr zo = ag::Leaf(RandomNormal(n, 48, 0, 0.4, &rng));
  ag::VarPtr za = ag::Leaf(RandomNormal(n, 48, 0, 0.4, &rng));
  std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);
  LossStepBench(
      state, {zo, za}, [&] { return ag::DualContrastiveLoss(zo, za, neg); },
      [&] { return ag::DualContrastiveLossNaive(zo, za, neg); });
}
BENCHMARK(BM_DualContrastiveLossStep)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({4, 0})
    ->UseRealTime();

void BM_RwrSampling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SparseMatrix adj = RandomAdj(n, 8, 6);
  Rng rng(7);
  RwrConfig config;
  config.target_size = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleRwrSubgraph(
        adj, static_cast<int>(rng.UniformInt(n)), config, &rng));
  }
}
BENCHMARK(BM_RwrSampling)->Arg(1000)->Arg(16000);

void BM_RocAuc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.05) ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RocAuc(scores, labels));
  }
}
BENCHMARK(BM_RocAuc)->Arg(10000)->Arg(100000);

void BM_ThresholdSelection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = (i < n / 20 ? 2.0 : 0.1) + rng.Normal(0, 0.05);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectThresholdInflection(scores));
  }
}
BENCHMARK(BM_ThresholdSelection)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace umgad

BENCHMARK_MAIN();
