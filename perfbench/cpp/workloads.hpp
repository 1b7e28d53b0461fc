// The three workloads. Each fills `report` with every end-to-end metric
// and the per-layer metrics of the layers it exercises, counts its ops and
// failures, and runs its counter cross-checks.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// train_hot (cold = false) or train_cold (cold = true).
void run_train(const Args& args, bool cold, Report& report);

/// serve_ipc.
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
