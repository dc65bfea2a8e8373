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

void NewtonSolver::stamp(EvalCtx ctx_proto, const DVector& x, DVector& f, DVector& q,
                         DMatrix& jf, DMatrix& jq) {
  const std::size_t n = x.size();
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  if (jf.rows() != n || jf.cols() != n) {
    jf.resize(n, n);
  } else {
    jf.fill(0.0);
  }
  if (jq.rows() != n || jq.cols() != n) {
    jq.resize(n, n);
  } else {
    jq.fill(0.0);
  }
  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = &jf;
  ctx.jq = &jq;
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

void NewtonSolver::stamp_values(EvalCtx ctx_proto, const DVector& x, DVector& f,
                                DVector& q) {
  const std::size_t n = x.size();
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = nullptr;  // Jacobian stamps are discarded (see EvalCtx::jf_add)
  ctx.jq = nullptr;
  ctx.sparse = nullptr;
  for (const auto& dev : circuit_.devices()) dev->evaluate(ctx);
  if (opts_.gmin > 0.0) {
    const auto nodes = static_cast<std::size_t>(circuit_.node_count());
    for (std::size_t i = 0; i < nodes; ++i) f[i] += opts_.gmin * x[i];
  }
}

void NewtonSolver::assemble_sparse(EvalCtx ctx_proto, const DVector& x, DVector& f,
                                   DVector& q) {
  assembler_->assemble(ctx_proto, x, f, q);
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
      assemble_sparse(ctx_proto, x, f_, q_);
      // Combined Newton matrix Jf + a0*Jq: one O(nnz) fuse over the flat
      // value arrays (they share the pattern's CSR layout).
      const std::vector<double>& jfv = assembler_->jf_values();
      const std::vector<double>& jqv = assembler_->jq_values();
      for (std::size_t k = 0; k < jac_vals_.size(); ++k)
        jac_vals_[k] = jfv[k] + a0 * jqv[k];
      for (std::size_t i = 0; i < n; ++i) {
        resid_[i] = f_[i] + a0 * q_[i] + (hist.empty() ? 0.0 : hist[i]);
        dx_[i] = -resid_[i];
      }
      try {
        lu_.factor(jac_vals_);  // symbolic reused; numeric refactorization
        lu_.solve(dx_);
      } catch (const SingularMatrixError&) {
        singular = true;
      } catch (const DeadlineError& e) {
        result.failure = e.kind();
        result.iterations = iter;
        return result;
      }
    } else {
      stamp(ctx_proto, x, f_, q_, jf_, jq_);
      // resid = f + a0*q + hist ; jacobian = Jf + a0*Jq. The combine writes
      // straight into the factorization scratch — LU may destroy it, it is
      // rebuilt next iteration anyway (no deep copy).
      for (std::size_t i = 0; i < n; ++i) {
        resid_[i] = f_[i] + a0 * q_[i] + (hist.empty() ? 0.0 : hist[i]);
        dx_[i] = -resid_[i];
      }
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          jacobian_(r, c) = jf_(r, c) + a0 * jq_(r, c);
        }
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

    // Optional step limiting (helps strongly nonlinear gap-closing regions).
    if (opts_.damping_limit > 0.0) {
      double scale = 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::abs(dx_[i]);
        if (mag > opts_.damping_limit) scale = std::min(scale, opts_.damping_limit / mag);
      }
      if (scale < 1.0) {
        for (auto& d : dx_) d *= scale;
      }
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
