// The benchmark's independent checks.  Each one recomputes what it checks
// from first principles — its own SpMV, its own triangular solves, its own
// work count — and never calls the library routine whose output it judges.
// tests/check_selftest.cpp feeds each check a corrupted output and shows
// that it fails.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Largest accepted backward error ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞).
inline constexpr double kMaxBackwardError = 1e-10;

/// y = A x for the symmetric A stored as its lower triangle.
std::vector<double> sym_spmv(const CscMatrix& lower, std::span<const double> x);

/// ‖A‖∞ of the symmetric A stored as its lower triangle.
double sym_norm_inf(const CscMatrix& lower);

/// ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞); +inf when x or the residual is not finite.
double backward_error(const CscMatrix& lower, std::span<const double> x,
                      std::span<const double> b);

/// backward_error within kMaxBackwardError, for every one of `nrhs`
/// column-major right-hand sides.
bool solution_ok(const CscMatrix& lower, std::span<const double> x,
                 std::span<const double> b, index_t nrhs = 1);

/// `perm` holds each of 0..n-1 exactly once.
bool is_bijection(std::span<const index_t> perm, index_t n);

/// One processor per block, each below `nprocs`.
bool assignment_ok(std::span<const index_t> proc_of_block, index_t nblocks, index_t nprocs);

/// Cholesky work from the factor's column structure alone: per column with
/// m sub-diagonal entries, m(m+1)/2 update pairs at 2 units each, plus one
/// scaling unit per stored entry.
count_t expected_work(std::span<const count_t> factor_col_ptr);

/// A report's total work equals expected_work of its factor.
bool work_ok(count_t reported, std::span<const count_t> factor_col_ptr);

/// Fetch-once traffic can never exceed every processor reading the whole
/// factor.
bool traffic_within_bound(count_t traffic, index_t nprocs, count_t factor_nnz);

/// measured[dst][src] equals analytic[dst * np + src] off the diagonal.
bool volumes_equal(const std::vector<std::vector<count_t>>& measured,
                   std::span<const count_t> analytic, index_t nprocs);

/// x = Pᵀ L⁻ᵀ L⁻¹ P b with the factor L given by its CSC structure (rows
/// ascending, diagonal first) and values, and P taking new index k to
/// original index perm[k].
std::vector<double> factor_solve(std::span<const count_t> col_ptr,
                                 std::span<const index_t> row_ind,
                                 std::span<const double> values,
                                 std::span<const index_t> perm, std::span<const double> b);

/// The server's stats document counts exactly `answered` solve frames.
bool solves_match(const std::string& stats_doc, std::int64_t answered);

/// A numeric field of a flat JSON document: the number after the first
/// `"key":`, searched from the first occurrence of `within` (or the start).
/// NaN when absent.
double json_number(const std::string& doc, const std::string& key,
                   const std::string& within = "");

}  // namespace perfbench
