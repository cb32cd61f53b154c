#include "stats/logistic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "stats/ols.h"

namespace mesa {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

// One Newton step's sums: the gradient and the upper-triangle Hessian of
// the log-likelihood over rows in order, feature 0 being the intercept.
// P is the coefficient count when fixed at compile time (0 = read it from
// beta.size()); fixed-size accumulators let the compiler keep every sum in
// a register. Each sum adds the same terms in the same order for any P.
template <size_t P>
void NewtonSums(const std::vector<std::vector<double>>& columns,
                const std::vector<uint8_t>& y, const std::vector<double>& beta,
                std::vector<double>* grad_out, std::vector<double>* hess_out) {
  using Vec = std::conditional_t<P != 0, std::array<double, P>,
                                 std::vector<double>>;
  using Mat = std::conditional_t<P != 0, std::array<double, P * P>,
                                 std::vector<double>>;
  const size_t p = P != 0 ? P : beta.size();
  Vec f{}, b{}, grad{};
  Mat hess{};
  std::vector<const double*> cols(p, nullptr);
  if constexpr (P == 0) {
    f.resize(p);
    b.resize(p);
    grad.assign(p, 0.0);
    hess.assign(p * p, 0.0);
  }
  std::copy(beta.begin(), beta.end(), b.begin());
  for (size_t j = 1; j < p; ++j) cols[j] = columns[j - 1].data();
  f[0] = 1.0;
  const size_t n = y.size();
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 1; j < p; ++j) f[j] = cols[j][r];
    double z = 0.0;
    for (size_t j = 0; j < p; ++j) z += b[j] * f[j];
    double mu = Sigmoid(z);
    double w = std::max(mu * (1.0 - mu), 1e-10);
    double resid = static_cast<double>(y[r]) - mu;
    for (size_t i = 0; i < p; ++i) {
      double fi = f[i];
      grad[i] += fi * resid;
      for (size_t j = i; j < p; ++j) hess[i * p + j] += w * fi * f[j];
    }
  }
  std::copy(grad.begin(), grad.end(), grad_out->begin());
  std::copy(hess.begin(), hess.end(), hess_out->begin());
}

}  // namespace

double LogisticModel::PredictProbability(
    const std::vector<std::vector<double>>& columns, size_t row) const {
  double z = coefficients_.empty() ? 0.0 : coefficients_[0];
  size_t arity = std::min(columns.size(), coefficients_.size() - 1);
  for (size_t j = 0; j < arity; ++j) {
    z += coefficients_[j + 1] * columns[j][row];
  }
  return Sigmoid(z);
}

Result<LogisticModel> FitLogistic(
    const std::vector<std::vector<double>>& columns,
    const std::vector<uint8_t>& y, const LogisticOptions& options) {
  const size_t n = y.size();
  if (n == 0) return Status::InvalidArgument("empty sample");
  for (const auto& column : columns) {
    if (column.size() != n) {
      return Status::InvalidArgument("x/y length mismatch");
    }
  }
  const size_t p = columns.size() + 1;

  LogisticModel model;
  std::vector<double>& beta = model.coefficients_;
  beta.assign(p, 0.0);

  // Start the intercept at the log-odds of the base rate: one Newton step
  // from a sensible point converges much faster on imbalanced labels.
  double pos = 0.0;
  for (uint8_t label : y) pos += label;
  double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  beta[0] = std::log(base / (1.0 - base));

  std::vector<double> hess(p * p);
  std::vector<double> grad(p);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    switch (p) {
      case 2:
        NewtonSums<2>(columns, y, beta, &grad, &hess);
        break;
      case 3:
        NewtonSums<3>(columns, y, beta, &grad, &hess);
        break;
      default:
        NewtonSums<0>(columns, y, beta, &grad, &hess);
        break;
    }
    for (size_t i = 0; i < p; ++i) {
      grad[i] -= options.l2_penalty * beta[i];
      hess[i * p + i] += options.l2_penalty;
      for (size_t j = 0; j < i; ++j) hess[i * p + j] = hess[j * p + i];
    }
    std::vector<double> step = grad;
    std::vector<double> chol = hess;
    if (!CholeskySolve(chol, step, p)) {
      return Status::Internal("logistic Hessian not positive definite");
    }
    double max_delta = 0.0;
    for (size_t j = 0; j < p; ++j) {
      beta[j] += step[j];
      max_delta = std::max(max_delta, std::fabs(step[j]));
    }
    model.iterations_ = iter + 1;
    if (max_delta < options.tolerance) {
      model.converged_ = true;
      break;
    }
  }
  return model;
}

}  // namespace mesa
