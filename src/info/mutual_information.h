#ifndef MESA_INFO_MUTUAL_INFORMATION_H_
#define MESA_INFO_MUTUAL_INFORMATION_H_

#include <vector>

#include "info/entropy.h"

namespace mesa {

/// Mutual information I(X; Y) in bits, estimated by the plug-in estimator
/// over rows where both variables are observed; optional per-row weights
/// give the IPW estimator (Section 3.2). Never negative (clamped at 0).
double MutualInformation(const CodedVariable& x, const CodedVariable& y,
                         const std::vector<double>* weights = nullptr,
                         const EntropyOptions& options = {});

/// Conditional mutual information I(X; Y | Z) in bits:
///   H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z)
/// over rows where X, Y and Z are all observed. Z is a composite code (use
/// CombineAll to build it from a conditioning set). Clamped at 0.
double ConditionalMutualInformation(const CodedVariable& x,
                                    const CodedVariable& y,
                                    const CodedVariable& z,
                                    const std::vector<double>* weights = nullptr,
                                    const EntropyOptions& options = {});

}  // namespace mesa

#endif  // MESA_INFO_MUTUAL_INFORMATION_H_
