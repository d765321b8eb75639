#ifndef FEDSHAP_ML_KERNEL_BACKEND_H_
#define FEDSHAP_ML_KERNEL_BACKEND_H_

#include <string>

#include "util/status.h"

namespace fedshap {

/// \file
/// Runtime-dispatched SIMD backends for the ML substrate's batched
/// kernels (ml/matrix.h).
///
/// The kernels in matrix.cc route their hot inner bodies through a
/// per-process dispatch table. At startup the table is bound to the
/// widest instruction set the CPU supports (probed via CPUID):
///
///   - kScalar:  the portable blocked loops (compiler autovectorized at
///               the build's baseline ISA) — always available, and the
///               reference the vector backend is tested against;
///   - kAvx2:    explicit AVX2 micro-kernels (8-lane, no FMA), only
///               when both the compiler and the CPU support AVX2.
///               AVX-512 CPUs bind it too: 16-lane kernels measured no
///               faster.
///
/// **Determinism contract.** Every backend trains the same bits. Each
/// vector body computes every output element with exactly the scalar
/// body's operations in the scalar body's order: the lanes run over
/// independent output elements, and products and sums round separately
/// (no FMA). So every kernel-table entry, and with them every training,
/// is bit-identical across backends, runs and worker counts; the
/// backend changes only the speed. Persisted utility stores, the
/// golden-value tests and the parameter pins therefore hold under any
/// backend, and a cluster may mix workers on different backends.
///
/// Override order: SetKernelBackend() > FEDSHAP_KERNEL_BACKEND env var
/// ("scalar" | "avx2" | "auto") > CPUID auto-detection.
enum class KernelBackend {
  kScalar = 0,  ///< Portable blocked loops; always available reference.
  kAvx2 = 1,    ///< Explicit AVX2 micro-kernels (8-lane, no FMA).
};

/// Human-readable backend name ("scalar", "avx2").
const char* KernelBackendName(KernelBackend backend);

/// Parses a backend name as accepted by FEDSHAP_KERNEL_BACKEND. "auto"
/// returns the auto-detected backend for this machine.
Result<KernelBackend> ParseKernelBackend(const std::string& name);

/// True when `backend` was compiled in *and* this CPU can execute it.
/// kScalar is always available.
bool KernelBackendAvailable(KernelBackend backend);

/// The backend the dispatch table is currently bound to. The first call
/// resolves FEDSHAP_KERNEL_BACKEND / CPUID; thereafter it reports the
/// active selection.
KernelBackend SelectedKernelBackend();

/// The widest backend this build + CPU supports (ignores any override).
KernelBackend AutoDetectKernelBackend();

/// Rebinds the dispatch table to `backend`. Fails with InvalidArgument
/// when the backend is not available on this machine. Not synchronized
/// with in-flight kernel calls: switch between trainings (tests and
/// benches do), not during one.
Status SetKernelBackend(KernelBackend backend);

/// One-line provenance string naming the active kernel backend and
/// whether it was auto-detected or pinned, e.g.
///   "kernels: backend=avx2 (auto)"
/// Every bench/example binary prints this (and fedshapd --status
/// includes it) so performance numbers are attributable to a concrete
/// hardware configuration.
std::string KernelProvenanceString();

}  // namespace fedshap

#endif  // FEDSHAP_ML_KERNEL_BACKEND_H_
