#include "cases.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/qr_batch.hpp"
#include "vsaqr/tree_qr.hpp"

namespace perfbench {

using namespace pulsarqr;

namespace {

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows != y.rows || x.cols != y.cols) return false;
  for (int j = 0; j < x.cols; ++j) {
    if (std::memcmp(x.col(j), y.col(j), sizeof(double) * x.rows) != 0) {
      return false;
    }
  }
  return true;
}

/// T factors hold one ib-by-kb upper-triangular block per inner panel;
/// only those triangles carry data (the strict lower parts are never read,
/// and the array leaves there whatever its pooled buffers held).
bool same_t_bits(ConstMatrixView x, ConstMatrixView y, int ib) {
  if (x.rows != y.rows || x.cols != y.cols) return false;
  for (int j = 0; j < x.cols; ++j) {
    const int len = std::min(j % ib + 1, x.rows);
    if (std::memcmp(x.col(j), y.col(j), sizeof(double) * len) != 0) {
      return false;
    }
  }
  return true;
}

class QrCase final : public Case {
 public:
  QrCase(const Workload& w, unsigned long long seed)
      : Case(w), dense_(tree_input(w, seed)), opt_(tree_options(w)) {}

  void prepare() override { tiles_ = TileMatrix::from_dense(dense_.view(), w_.nb); }

  CallOutcome call(bool traced) override {
    vsaqr::TreeQrOptions opt = opt_;
    opt.trace = traced;
    const auto t0 = Clock::now();
    vsaqr::TreeQrRun run = vsaqr::tree_qr(tiles_, opt);
    CallOutcome out;
    out.wall = seconds_since(t0);
    out.stats = std::move(run.stats);
    out.events = std::move(run.events);
    out.expected_fires = static_cast<long long>(run.factors.plan.ops().size());
    out.forked = w_.socket;
    last_ = std::move(run.factors);
    return out;
  }

  double compute_reference() override {
    TileMatrix a = TileMatrix::from_dense(dense_.view(), w_.nb);
    const auto t0 = Clock::now();
    ref_ = ref::tree_qr(std::move(a), w_.ib, w_.tree);
    return seconds_since(t0);
  }

  std::string check_result() const override {
    if (!last_ || !ref_) return "no result or no reference";
    const TileMatrix& x = last_->a;
    const TileMatrix& y = ref_->a;
    if (x.mt() != y.mt() || x.nt() != y.nt()) return "factor shape differs";
    for (int j = 0; j < x.nt(); ++j) {
      for (int i = 0; i < x.mt(); ++i) {
        if (!same_bits(x.tile(i, j), y.tile(i, j))) {
          return "factor tile (" + std::to_string(i) + "," +
                 std::to_string(j) + ") differs from ref::tree_qr";
        }
      }
    }
    // T factors exist only where the plan's factor ops wrote them.
    for (const plan::Op& op : ref_->plan.ops()) {
      const bool geqrt = op.kind == plan::OpKind::Geqrt;
      if (!geqrt && op.kind != plan::OpKind::Tsqrt &&
          op.kind != plan::OpKind::Ttqrt) {
        continue;
      }
      const int i = geqrt ? op.i : op.k;
      const ref::TStore& tx = geqrt ? last_->tg : last_->tt;
      const ref::TStore& ty = geqrt ? ref_->tg : ref_->tt;
      if (!same_t_bits(tx.t(i, op.j), ty.t(i, op.j), w_.ib)) {
        return "T factor (" + std::to_string(i) + "," + std::to_string(op.j) +
               ") differs from ref::tree_qr";
      }
    }
    return {};
  }

  void release() override { last_.reset(); }

 private:
  Matrix dense_;
  TileMatrix tiles_;
  vsaqr::TreeQrOptions opt_;
  std::optional<ref::TreeQrFactors> ref_;
  std::optional<ref::TreeQrFactors> last_;
};

class BatchCase final : public Case {
 public:
  BatchCase(const Workload& w, unsigned long long seed) : Case(w) {
    Rng rng(seed);
    pristine_.reserve(w.batch);
    for (int i = 0; i < w.batch; ++i) {
      Matrix p(w.m, w.n);
      for (int j = 0; j < w.n; ++j) {
        for (int r = 0; r < w.m; ++r) p(r, j) = rng.next_symmetric();
      }
      pristine_.push_back(std::move(p));
    }
    opt_.ib = w.ib;
    opt_.nodes = w.nodes;
    opt_.workers_per_node = w.workers_per_node;
  }

  void prepare() override {
    if (a_.empty()) {
      const int k = std::min(w_.m, w_.n);
      a_ = pristine_;
      t_.assign(w_.batch, Matrix(std::min(w_.ib, k), k));
      for (int i = 0; i < w_.batch; ++i) {
        av_.push_back(a_[i].view());
        tv_.push_back(t_[i].view());
      }
      return;
    }
    const std::size_t bytes = sizeof(double) * w_.m * w_.n;
    for (int i = 0; i < w_.batch; ++i) {
      std::memcpy(a_[i].data(), pristine_[i].data(), bytes);
    }
  }

  CallOutcome call(bool traced) override {
    vsaqr::BatchOptions opt = opt_;
    opt.record_latency = traced;
    const auto t0 = Clock::now();
    vsaqr::BatchRun run = vsaqr::qr_batch(std::span<const MatrixView>(av_),
                                          std::span<const MatrixView>(tv_),
                                          opt);
    CallOutcome out;
    out.wall = seconds_since(t0);
    out.stats = std::move(run.stats);
    out.expected_fires = run.chunks;
    out.matrix_seconds = std::move(run.matrix_seconds);
    return out;
  }

  double compute_reference() override {
    const int k = std::min(w_.m, w_.n);
    exp_a_ = pristine_;
    exp_t_.assign(w_.batch, Matrix(std::min(w_.ib, k), k));
    const auto t0 = Clock::now();
    for (int i = 0; i < w_.batch; ++i) {
      kernels::geqrt(exp_a_[i].view(), w_.ib, exp_t_[i].view());
    }
    return seconds_since(t0);
  }

  std::string check_result() const override {
    if (exp_a_.size() != a_.size()) return "no reference";
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (!same_bits(a_[i].view(), exp_a_[i].view()) ||
          !same_bits(t_[i].view(), exp_t_[i].view())) {
        return "matrix " + std::to_string(i) +
               " differs from the sequential kernels::geqrt loop";
      }
    }
    return {};
  }

  void release() override {}

 private:
  std::vector<Matrix> pristine_, a_, t_, exp_a_, exp_t_;
  std::vector<MatrixView> av_, tv_;
  vsaqr::BatchOptions opt_;
};

}  // namespace

std::unique_ptr<Case> make_case(const Workload& w, unsigned long long seed) {
  if (w.kind == Workload::Kind::Batch) {
    return std::make_unique<BatchCase>(w, seed);
  }
  return std::make_unique<QrCase>(w, seed);
}

Matrix tree_input(const Workload& w, unsigned long long seed) {
  Matrix a(w.m, w.n);
  fill_random(a.view(), seed);
  return a;
}

vsaqr::TreeQrOptions tree_options(const Workload& w) {
  vsaqr::TreeQrOptions opt;
  opt.tree = w.tree;
  opt.ib = w.ib;
  opt.nodes = w.nodes;
  opt.workers_per_node = w.workers_per_node;
  if (w.socket) {
    opt.transport = prt::Transport::Socket;
    opt.reliable_transport = true;
  }
  return opt;
}

std::string check_stats(const CallOutcome& c, bool warm) {
  const prt::Vsa::RunStats& s = c.stats;
  if (s.fires != c.expected_fires) {
    return "fires " + std::to_string(s.fires) + " != planned " +
           std::to_string(c.expected_fires);
  }
  if (s.leftover_packets != 0) {
    return "leftover_packets " + std::to_string(s.leftover_packets);
  }
  if (warm && !c.forked && s.pool_misses * 20 > s.pool_hits) {
    return "pool_misses " + std::to_string(s.pool_misses) + " of " +
           std::to_string(s.pool_misses + s.pool_hits) + " once warm";
  }
  return {};
}

}  // namespace perfbench
