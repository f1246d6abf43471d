// Calibration constants of the iMARS system model.
//
// The paper composes its system-level numbers (Table III, Sec IV-C) from the
// Table II array FoM plus assumptions it states but does not fully quantify.
// The two constants below close that gap; each carries its derivation.
// bench_paper's table3.* rows and bench_end_to_end record paper-vs-measured
// for the numbers that depend on them.
#pragma once

#include <cstddef>

namespace imars::core {

/// Pooled lookups per embedding table assumed by the paper's worst case
/// ("we consider the worst case that all lookups for one ET happen in the
/// same array. Multiple lookups in one array requires multiple read, write
/// and in-memory add operations", Sec IV-C1).
///
/// Derivation: with the Table II FoM and the serialized sequence
///   read + (L-1) x (read + write + add) + intra-mat + IBC + intra-bank
///   + RSC serialization,
/// each lookup past the first adds 18.4 ns, and L = 8 composes the three
/// Table III iMARS latencies as
///   MovieLens filtering 0.2135us (paper 0.21), ranking 0.2175us (paper
///   0.21), Criteo ranking 0.2935us (paper 0.24).
/// No one L fits all three: L = 8 puts MovieLens within 4% and leaves
/// Criteo 22% high. bench_paper's table3.*.imars_latency_us rows bound
/// these gaps.
inline constexpr std::size_t kWorstCaseLookupsPerTable = 8;

/// Peripheral energy charged per *active* CMA per ET operation (word-line /
/// search-line drivers, decoders, sense-amp bias of arrays that belong to
/// the activated table), in picojoules.
///
/// The Table II macro numbers cover the accessed array only; the paper's
/// system energies scale with the number of active arrays (0.40uJ for 54-74
/// active CMAs on MovieLens vs 6.88uJ for 2860 on Criteo). Solving the
/// Criteo point for the per-array overhead gives ~2.4 nJ per array per ET
/// operation; MovieLens then lands 2.1x and 2.4x below the paper
/// (bench_paper's table3.ml_*.imars_energy_uj rows).
inline constexpr double kPeripheralPjPerActiveCmaPerOp = 2400.0;

/// Peripheral energy charged per *searched* signature CMA per NNS operation
/// (search-line drivers + CAM sense amps + dummy-cell reference), in
/// picojoules. Calibrated to the Sec IV-C2 energy ratio (2.8e4x vs the GPU
/// LSH search's 150 uJ over the 16 signature arrays of the MovieLens ItET):
/// 150 uJ / 2.8e4 / 16 arrays ~= 335 pJ per array.
inline constexpr double kSearchPeripheralPjPerActiveCma = 335.0;

/// Default candidate count per query used in the end-to-end evaluation.
/// Derived from the paper's GPU throughput: 1311 QPS = 762 us/query =
/// filtering (17.5 us) + C x ranking-per-candidate (36.7 us) + top-k (5 us)
/// -> C ~= 20.
inline constexpr std::size_t kEndToEndCandidates = 20;

}  // namespace imars::core
