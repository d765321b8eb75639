#ifndef FEDSHAP_ML_METRICS_H_
#define FEDSHAP_ML_METRICS_H_

#include "data/dataset.h"
#include "ml/model.h"

namespace fedshap {

/// Fraction of rows whose argmax logit equals the class label (ScoreRows
/// with RowScore::kCorrect). Returns 0 for an empty dataset.
/// Classification data only; `data` must fit the model
/// (CheckDatasetFitsModel), anything else is a fatal error.
double EvaluateAccuracy(const Model& model, const Dataset& data);

/// MSE between two raw vectors (used for theory checks).
double MseBetween(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace fedshap

#endif  // FEDSHAP_ML_METRICS_H_
