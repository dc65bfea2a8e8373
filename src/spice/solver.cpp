#include "spice/solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fault_inject.hpp"
#include "common/log.hpp"

namespace usys::spice {

NewtonSolver::NewtonSolver(Circuit& circuit, NewtonOptions opts)
    : circuit_(circuit), opts_(opts) {
  circuit_.bind_all();
  const auto n = static_cast<std::size_t>(circuit_.unknown_count());
  f_.resize(n);
  q_.resize(n);
  resid_.resize(n);
  dx_.resize(n);
  for (const auto& dev : circuit_.devices()) {
    if (dev->stores_charge()) charged_.push_back(dev.get());
  }

  if (static_cast<int>(n) >= opts_.sparse_threshold) {
    const MnaPattern& pattern = circuit_.mna_pattern();
    assembler_ = std::make_unique<MnaAssembler>(circuit_, pattern);
    lu_.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
    jac_vals_.resize(pattern.nonzeros());
  } else {
    // Dense path: the n x n scratch lives only here.
    jf_.resize(n, n);
    jq_.resize(n, n);
    jacobian_.resize(n, n);
  }
}

namespace {

/// Sizes `m` to n x n, or zero-fills it when it already has that shape.
void zero_square(DMatrix& m, std::size_t n) {
  if (m.rows() != n || m.cols() != n) {
    m.resize(n, n);
  } else {
    m.fill(0.0);
  }
}

}  // namespace

void NewtonSolver::stamp(EvalCtx ctx_proto, const DVector& x, DVector& f, DVector& q,
                         DMatrix& jf, DMatrix& jq) {
  stamp_dense(ctx_proto, x, f, q, jf, &jq);
}

void NewtonSolver::stamp_dense(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                               DVector& q, DMatrix& jf, DMatrix* jq) {
  const std::size_t n = x.size();
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  zero_square(jf, n);
  if (jq != nullptr) zero_square(*jq, n);
  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = &jf;
  ctx.jq = jq;
  ctx.sparse = nullptr;
  for (const auto& dev : circuit_.devices()) dev->evaluate(ctx);
  // gmin ties every *node* row weakly to ground, keeping the Jacobian
  // nonsingular for floating subnets (branch rows are exact constraints and
  // must not be polluted).
  if (opts_.gmin > 0.0) {
    const auto nodes = static_cast<std::size_t>(circuit_.node_count());
    for (std::size_t i = 0; i < nodes; ++i) {
      f[i] += opts_.gmin * x[i];
      jf(i, i) += opts_.gmin;
    }
  }
}

void NewtonSolver::harvest_charge(EvalCtx ctx_proto, const DVector& x, DVector& q) {
  q.assign(x.size(), 0.0);
  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  // f_ only catches the discarded flow stamps: every Newton pass zeroes it
  // before it stamps, so nothing here is ever read.
  ctx.f = &f_;
  ctx.q = &q;
  ctx.jf = nullptr;  // Jacobian stamps are discarded (see EvalCtx::jf_add)
  ctx.jq = nullptr;
  ctx.sparse = nullptr;
  for (Device* dev : charged_) dev->evaluate(ctx);
}

void NewtonSolver::assemble_sparse(EvalCtx ctx_proto, const DVector& x, DVector& f,
                                   DVector& q, bool with_jq) {
  assembler_->assemble(ctx_proto, x, f, q, with_jq);
  if (opts_.gmin > 0.0) {
    const auto nodes = static_cast<std::size_t>(circuit_.node_count());
    for (std::size_t i = 0; i < nodes; ++i) {
      f[i] += opts_.gmin * x[i];
      assembler_->add_diag_jf(static_cast<int>(i), opts_.gmin);
    }
  }
}

NewtonResult NewtonSolver::solve(EvalCtx ctx_proto, double a0, const DVector& hist,
                                 DVector& x) {
  NewtonResult result;
  result.used_sparse = sparse_active();
  const std::size_t n = x.size();
  const DVector& abstol = circuit_.abstol();
  // J = Jf + a0*Jq: at a0 = 0 (DC) no pass extracts Jq, so devices that
  // derive it indirectly (HDL dc_ddt capture) skip that work.
  const bool with_jq = a0 != 0.0;

  // Injected Newton stall: the whole solve reports divergence immediately,
  // exactly as a real never-converging iteration would after max_iters —
  // this is how tests drive the DC rescue ladder and the transient
  // step-rejection path on demand.
  if (USYS_FAULT_POINT("newton.stall")) {
    result.failure = FailureKind::newton_divergence;
    return result;
  }

  for (int iter = 0; iter < opts_.max_iters; ++iter) {
    // Deadline poll at the iteration boundary: a budgeted analysis can
    // never sit in the Newton loop past its budget, whatever the devices
    // or the matrix do.
    if (deadline_ != nullptr && deadline_->expired()) {
      result.failure = deadline_->exceeded_kind();
      result.iterations = iter;
      return result;
    }
    bool singular = false;
    if (sparse_active()) {
      assemble_sparse(ctx_proto, x, f_, q_, with_jq);
      // Combined Newton matrix Jf + a0*Jq: one O(nnz) fuse over the flat
      // value arrays (they share the pattern's CSR layout). DC factors Jf
      // as assembled.
      const std::vector<double>* jac = &assembler_->jf_values();
      if (with_jq) {
        const std::vector<double>& jfv = *jac;
        const std::vector<double>& jqv = assembler_->jq_values();
        for (std::size_t k = 0; k < jac_vals_.size(); ++k)
          jac_vals_[k] = jfv[k] + a0 * jqv[k];
        jac = &jac_vals_;
      }
      for (std::size_t i = 0; i < n; ++i) {
        resid_[i] = f_[i] + a0 * q_[i] + (hist.empty() ? 0.0 : hist[i]);
        dx_[i] = -resid_[i];
      }
      try {
        lu_.factor(*jac);  // symbolic reused; numeric refactorization
        lu_.solve(dx_);
      } catch (const SingularMatrixError&) {
        singular = true;
      } catch (const DeadlineError& e) {
        result.failure = e.kind();
        result.iterations = iter;
        return result;
      }
    } else {
      // resid = f + a0*q + hist ; jacobian = Jf + a0*Jq. The combine writes
      // straight into the factorization scratch — LU may destroy it, it is
      // rebuilt next iteration anyway (no deep copy). DC stamps Jf there
      // directly.
      if (with_jq) {
        stamp_dense(ctx_proto, x, f_, q_, jf_, &jq_);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            jacobian_(r, c) = jf_(r, c) + a0 * jq_(r, c);
          }
        }
      } else {
        stamp_dense(ctx_proto, x, f_, q_, jacobian_, nullptr);
      }
      for (std::size_t i = 0; i < n; ++i) {
        resid_[i] = f_[i] + a0 * q_[i] + (hist.empty() ? 0.0 : hist[i]);
        dx_[i] = -resid_[i];
      }
      try {
        lu_solve(jacobian_, dx_);
      } catch (const SingularMatrixError&) {
        singular = true;
      }
    }
    result.symbolic_factorizations = symbolic_factorizations();
    if (singular) {
      log_debug("newton: singular jacobian at iter " + std::to_string(iter));
      result.converged = false;
      result.failure = FailureKind::singular_matrix;
      result.iterations = iter + 1;
      return result;
    }

    double max_weighted = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(dx_[i])) {
        finite = false;
        break;
      }
      const double tol = opts_.reltol * std::max(std::abs(x[i]), std::abs(x[i] + dx_[i])) +
                         abstol[i];
      max_weighted = std::max(max_weighted, std::abs(dx_[i]) / tol);
      x[i] += dx_[i];
    }
    result.iterations = iter + 1;
    result.final_error = max_weighted;
    if (!finite) {
      result.converged = false;
      result.failure = FailureKind::newton_divergence;
      return result;
    }
    if (max_weighted < 1.0) {
      result.converged = true;
      return result;
    }
  }
  result.converged = false;
  result.failure = FailureKind::newton_divergence;
  return result;
}

}  // namespace usys::spice
