// Self-contained micro-benchmark of the NN kernel layer and the estimator
// hot paths — no external benchmark library. Every kernel is measured twice:
// the production implementation (nn/kernels.h) and the retained pre-tiling
// reference (nn/kernels_ref.h), so the emitted JSON carries a
// machine-normalized `speedup_vs_ref` that bench/compare_bench.py gates on
// in CI.
//
// Usage:
//   bench_micro_nn [--out=BENCH_kernels.json] [--min-time=0.05] [--reps=3]
//                  [--filter=gemm]
//
// JSON schema (BENCH_kernels.json):
//   { "schema_version": 1,
//     "config": { ... build/measurement metadata ... },
//     "benchmarks": [ { "name": "gemm_accum/256x256x256",
//                       "ns_per_op": ..., "gflops": ...,
//                       "ref_ns_per_op": ..., "ref_gflops": ...,
//                       "speedup_vs_ref": ... }, ... ] }
// Kernels report GFLOP/s; end-to-end entries (trunk forward, progressive
// sampling) report ns/op only.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/dps.h"
#include "core/progressive.h"
#include "core/targets.h"
#include "data/synthetic.h"
#include "nn/kernels.h"
#include "nn/kernels_ref.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_kernels.json";
  double min_time_s = 0.05;
  int reps = 3;
  std::string filter;
};

struct Result {
  std::string name;
  double ns_per_op = 0.0;
  double gflops = 0.0;       // 0 when the entry has no flop count
  double ref_ns_per_op = 0.0;  // 0 when there is no reference twin
  double ref_gflops = 0.0;
  double speedup_vs_ref = 0.0;
};

/// Grows the iteration count until one timed batch of `fn` runs for at least
/// `min_time_s`; returns the batch size (the calibration run also warms up
/// caches and the frequency governor).
int64_t Calibrate(const std::function<void()>& fn, const Options& opt) {
  fn();
  int64_t iters = 1;
  util::Stopwatch sw;
  for (;;) {
    sw.Reset();
    for (int64_t i = 0; i < iters; ++i) fn();
    double elapsed = sw.ElapsedSeconds();
    if (elapsed >= opt.min_time_s) return iters;
    // Scale straight to the target with 2x headroom, bounded against runaway.
    int64_t next = elapsed > 0 ? static_cast<int64_t>(
                                     iters * (opt.min_time_s / elapsed) * 2.0) + 1
                               : iters * 8;
    iters = std::min(std::max(next, iters * 2), int64_t{1} << 30);
  }
}

double TimeBatch(const std::function<void()>& fn, int64_t iters) {
  util::Stopwatch sw;
  for (int64_t i = 0; i < iters; ++i) fn();
  return sw.ElapsedSeconds() / static_cast<double>(iters);
}

struct Measurement {
  double sec_per_op = 0.0;      // best over reps
  double ref_sec_per_op = 0.0;  // best over reps; 0 without a ref twin
  double speedup = 0.0;         // median over reps of paired batch ratios
};

/// Times `fn` and (when set) its reference twin. Repetitions interleave fn
/// and ref batches, and the speedup is the *median of per-rep ratios* of
/// adjacent batches: host-load drift (shared-core VMs, frequency steps) hits
/// both sides of each pair, so the ratio stays stable even when absolute
/// timings wander.
Measurement Measure(const std::function<void()>& fn,
                    const std::function<void()>& ref_fn, const Options& opt) {
  const int64_t iters = Calibrate(fn, opt);
  const int64_t ref_iters = ref_fn ? Calibrate(ref_fn, opt) : 0;
  Measurement out;
  out.sec_per_op = 1e300;
  out.ref_sec_per_op = 1e300;
  std::vector<double> ratios;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const double t = TimeBatch(fn, iters);
    out.sec_per_op = std::min(out.sec_per_op, t);
    if (ref_fn) {
      const double rt = TimeBatch(ref_fn, ref_iters);
      out.ref_sec_per_op = std::min(out.ref_sec_per_op, rt);
      ratios.push_back(rt / t);
    }
  }
  if (!ref_fn) {
    out.ref_sec_per_op = 0.0;
    return out;
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  out.speedup = ratios[ratios.size() / 2];
  return out;
}

class Suite {
 public:
  explicit Suite(const Options& opt) : opt_(opt) {}

  bool Wanted(const std::string& name) const {
    return opt_.filter.empty() || name.find(opt_.filter) != std::string::npos;
  }

  /// Kernel benchmark with a reference twin: reports GFLOP/s and speedup.
  void AddKernel(const std::string& name, double flops_per_op,
                 const std::function<void()>& fn,
                 const std::function<void()>& ref_fn) {
    if (!Wanted(name)) return;
    Result r;
    r.name = name;
    Measurement m = Measure(fn, ref_fn, opt_);
    r.ns_per_op = m.sec_per_op * 1e9;
    if (flops_per_op > 0) r.gflops = flops_per_op / m.sec_per_op * 1e-9;
    r.ref_ns_per_op = m.ref_sec_per_op * 1e9;
    if (flops_per_op > 0) r.ref_gflops = flops_per_op / m.ref_sec_per_op * 1e-9;
    r.speedup_vs_ref = m.speedup;
    Report(r);
  }

  /// End-to-end benchmark: ns/op only.
  void AddEndToEnd(const std::string& name, const std::function<void()>& fn) {
    if (!Wanted(name)) return;
    Result r;
    r.name = name;
    r.ns_per_op = Measure(fn, nullptr, opt_).sec_per_op * 1e9;
    Report(r);
  }

  const std::vector<Result>& results() const { return results_; }

 private:
  void Report(const Result& r) {
    if (r.ref_ns_per_op > 0) {
      std::printf("%-36s %12.0f ns/op %8.2f GFLOP/s  (ref %8.2f, %.2fx)\n",
                  r.name.c_str(), r.ns_per_op, r.gflops, r.ref_gflops,
                  r.speedup_vs_ref);
    } else {
      std::printf("%-36s %12.0f ns/op\n", r.name.c_str(), r.ns_per_op);
    }
    std::fflush(stdout);
    results_.push_back(r);
  }

  Options opt_;
  std::vector<Result> results_;
};

std::string ShapeName(const char* kernel, int m, int k, int n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%dx%dx%d", kernel, m, k, n);
  return buf;
}

void BenchGemms(Suite* suite) {
  struct Shape {
    int m, k, n;
  };
  // 256x256x256 is the acceptance shape; the skinny and tall shapes mirror
  // the MADE trunk (large batch x hidden) and head (hidden x domain) GEMMs.
  const Shape shapes[] = {{64, 64, 64}, {128, 128, 128}, {256, 256, 256},
                          {512, 128, 64}, {200, 96, 512}};
  util::Rng rng(1);
  for (const Shape& s : shapes) {
    const double flops = 2.0 * s.m * s.k * s.n;
    {
      nn::Mat a = nn::Mat::Gaussian(s.m, s.k, 1.f, &rng);
      nn::Mat b = nn::Mat::Gaussian(s.k, s.n, 1.f, &rng);
      nn::Mat c(s.m, s.n);
      suite->AddKernel(ShapeName("gemm_accum", s.m, s.k, s.n), flops,
                       [&] { c.Zero(); nn::GemmAccum(a, b, &c); },
                       [&] { c.Zero(); nn::ref::GemmAccum(a, b, &c); });
    }
    {
      nn::Mat a = nn::Mat::Gaussian(s.m, s.k, 1.f, &rng);
      nn::Mat bt = nn::Mat::Gaussian(s.n, s.k, 1.f, &rng);
      nn::Mat c(s.m, s.n);
      suite->AddKernel(ShapeName("gemm_nt_accum", s.m, s.k, s.n), flops,
                       [&] { c.Zero(); nn::GemmNtAccum(a, bt, &c); },
                       [&] { c.Zero(); nn::ref::GemmNtAccum(a, bt, &c); });
    }
    {
      nn::Mat at = nn::Mat::Gaussian(s.k, s.m, 1.f, &rng);
      nn::Mat b = nn::Mat::Gaussian(s.k, s.n, 1.f, &rng);
      nn::Mat c(s.m, s.n);
      suite->AddKernel(ShapeName("gemm_tn_accum", s.m, s.k, s.n), flops,
                       [&] { c.Zero(); nn::GemmTnAccum(at, b, &c); },
                       [&] { c.Zero(); nn::ref::GemmTnAccum(at, b, &c); });
    }
  }
}

void BenchEpilogues(Suite* suite) {
  util::Rng rng(2);
  {
    nn::Mat in = nn::Mat::Gaussian(256, 256, 1.f, &rng);
    nn::Mat bias = nn::Mat::Gaussian(1, 256, 1.f, &rng);
    nn::Mat out(256, 256);
    suite->AddKernel("add_bias_relu/256x256", 0.0,
                     [&] { nn::AddBiasReluRows(in, bias, &out); },
                     [&] {
                       // Reference = the unfused pair the hot path used to run.
                       nn::ref::AddBiasRows(in, bias, &out);
                       nn::ReluInplace(&out);
                     });
  }
  for (int cols : {64, 1024}) {
    nn::Mat in = nn::Mat::Gaussian(256, cols, 1.f, &rng);
    nn::Mat out(256, cols);
    char name[64];
    std::snprintf(name, sizeof(name), "softmax_rows/256x%d", cols);
    suite->AddKernel(name, 0.0, [&] { nn::SoftmaxRows(in, &out); },
                     [&] { nn::ref::SoftmaxRows(in, &out); });
    std::snprintf(name, sizeof(name), "log_softmax_rows/256x%d", cols);
    suite->AddKernel(name, 0.0, [&] { nn::LogSoftmaxRows(in, &out); },
                     [&] { nn::ref::LogSoftmaxRows(in, &out); });
  }
}

struct MadeFixture {
  data::Table table = data::SyntheticDmv(5000, 3);
  data::VirtualSchema schema = data::VirtualSchema::Build(table, 1 << 30, 8);
  core::MadeModel model{&schema, [] {
                          core::MadeConfig mc;
                          mc.hidden = 64;
                          return mc;
                        }()};
};

void BenchEndToEnd(Suite* suite) {
  // Constructed lazily: --filter=gemm runs shouldn't pay for dataset setup.
  // Guard on the exact names registered below so suffix filters still match.
  if (!suite->Wanted("made_trunk_forward/b64") &&
      !suite->Wanted("made_trunk_forward/b256") &&
      !suite->Wanted("progressive_sample/s128") &&
      !suite->Wanted("dps_step/s24")) {
    return;
  }
  static MadeFixture* f = new MadeFixture();
  for (int batch : {64, 256}) {
    nn::NoGradGuard ng;
    std::vector<nn::Tensor> inputs;
    for (int vc = 0; vc < f->model.num_vcols(); ++vc) {
      inputs.push_back(f->model.WildcardInput(vc, batch));
    }
    char name[64];
    std::snprintf(name, sizeof(name), "made_trunk_forward/b%d", batch);
    suite->AddEndToEnd(name, [&] {
      nn::Tensor h = f->model.Trunk(inputs);
      (void)h;
    });
  }
  {
    workload::GeneratorConfig gc;
    workload::QueryGenerator gen(f->table, gc, 9);
    workload::Query q = gen.Generate();
    core::QueryTargets targets = core::BuildTargets(q, f->table, f->schema);
    util::Rng rng(11);
    suite->AddEndToEnd("progressive_sample/s128", [&] {
      double sel = core::ProgressiveSample(f->model, targets, 128, &rng);
      (void)sel;
    });
  }
  {
    // One DPS training step (forward + backward): the in-context exercise of
    // the GemmTnAccum backward kernel this PR parallelized.
    workload::GeneratorConfig gc;
    workload::QueryGenerator gen(f->table, gc, 13);
    std::vector<core::QueryTargets> targets;
    std::vector<const core::QueryTargets*> ptrs;
    std::vector<double> sels;
    for (int i = 0; i < 8; ++i) {
      targets.push_back(core::BuildTargets(gen.Generate(), f->table, f->schema));
      sels.push_back(0.01 * (i + 1));
    }
    for (auto& t : targets) ptrs.push_back(&t);
    core::DpsConfig dc;
    dc.samples = 24;
    util::Rng rng(17);
    suite->AddEndToEnd("dps_step/s24", [&] {
      nn::Tensor loss = core::DpsQueryLoss(f->model, ptrs, sels, dc, &rng);
      nn::Backward(loss);
      for (auto& p : f->model.Parameters()) p.tensor->ZeroGrad();
    });
  }
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.min_time_s = std::max(1e-4, flags.GetDouble("min-time", opt.min_time_s));
  opt.reps = std::max(1, static_cast<int>(flags.GetInt("reps", opt.reps)));
  opt.filter = flags.GetString("filter", "");

  Suite suite(opt);
  BenchGemms(&suite);
  BenchEpilogues(&suite);
  BenchEndToEnd(&suite);

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("min_time_s", opt.min_time_s);
  w.Member("reps", opt.reps);
  w.Member("gemm_row_tile", nn::kGemmRowTile);
  w.Member("gemm_col_tile", nn::kGemmColTile);
  w.Member("gemm_k_block", nn::kGemmKBlock);
#if defined(__AVX512F__)
  w.Member("isa", "avx512");
#elif defined(__AVX2__)
  w.Member("isa", "avx2");
#elif defined(__AVX__)
  w.Member("isa", "avx");
#else
  w.Member("isa", "sse2");
#endif
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  for (const Result& r : suite.results()) {
    w.BeginObject();
    w.Member("name", r.name);
    w.Member("ns_per_op", r.ns_per_op);
    if (r.gflops > 0) w.Member("gflops", r.gflops);
    if (r.ref_ns_per_op > 0) {
      w.Member("ref_ns_per_op", r.ref_ns_per_op);
      if (r.ref_gflops > 0) w.Member("ref_gflops", r.ref_gflops);
      w.Member("speedup_vs_ref", r.speedup_vs_ref);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s (%zu benchmarks)\n", opt.out.c_str(),
              suite.results().size());
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
