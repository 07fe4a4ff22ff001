#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace perfbench {

std::vector<double> sym_spmv(const CscMatrix& lower, std::span<const double> x) {
  const index_t n = lower.ncols();
  const auto cp = lower.col_ptr();
  const auto ri = lower.row_ind();
  const auto v = lower.values();
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    for (count_t s = cp[uj]; s < cp[uj + 1]; ++s) {
      const auto i = static_cast<std::size_t>(ri[static_cast<std::size_t>(s)]);
      const double a = v[static_cast<std::size_t>(s)];
      y[i] += a * x[uj];
      if (i != uj) y[uj] += a * x[i];
    }
  }
  return y;
}

double sym_norm_inf(const CscMatrix& lower) {
  const index_t n = lower.ncols();
  const auto cp = lower.col_ptr();
  const auto ri = lower.row_ind();
  const auto v = lower.values();
  std::vector<double> row(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    for (count_t s = cp[uj]; s < cp[uj + 1]; ++s) {
      const auto i = static_cast<std::size_t>(ri[static_cast<std::size_t>(s)]);
      const double a = std::abs(v[static_cast<std::size_t>(s)]);
      row[i] += a;
      if (i != uj) row[uj] += a;
    }
  }
  double m = 0.0;
  for (double r : row) m = std::max(m, r);
  return m;
}

double backward_error(const CscMatrix& lower, std::span<const double> x,
                      std::span<const double> b) {
  const auto n = static_cast<std::size_t>(lower.ncols());
  if (x.size() != n || b.size() != n) return std::numeric_limits<double>::infinity();
  const std::vector<double> ax = sym_spmv(lower, x);
  double r = 0.0, xn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return std::numeric_limits<double>::infinity();
    r = std::max(r, std::abs(b[i] - ax[i]));
    xn = std::max(xn, std::abs(x[i]));
    bn = std::max(bn, std::abs(b[i]));
  }
  const double denom = sym_norm_inf(lower) * xn + bn;
  if (!std::isfinite(r) || !std::isfinite(denom)) {
    return std::numeric_limits<double>::infinity();
  }
  return denom > 0.0 ? r / denom : r;
}

bool solution_ok(const CscMatrix& lower, std::span<const double> x,
                 std::span<const double> b, index_t nrhs) {
  const auto n = static_cast<std::size_t>(lower.ncols());
  if (nrhs < 1 || x.size() != n * static_cast<std::size_t>(nrhs) || b.size() != x.size()) {
    return false;
  }
  for (index_t r = 0; r < nrhs; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * n;
    if (!(backward_error(lower, x.subspan(off, n), b.subspan(off, n)) <=
          kMaxBackwardError)) {
      return false;
    }
  }
  return true;
}

bool is_bijection(std::span<const index_t> perm, index_t n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (index_t p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

bool assignment_ok(std::span<const index_t> proc_of_block, index_t nblocks,
                   index_t nprocs) {
  if (proc_of_block.size() != static_cast<std::size_t>(nblocks)) return false;
  return std::all_of(proc_of_block.begin(), proc_of_block.end(),
                     [&](index_t p) { return p >= 0 && p < nprocs; });
}

count_t expected_work(std::span<const count_t> factor_col_ptr) {
  count_t work = 0;
  for (std::size_t j = 0; j + 1 < factor_col_ptr.size(); ++j) {
    const count_t c = factor_col_ptr[j + 1] - factor_col_ptr[j];  // with the diagonal
    const count_t m = c - 1;
    work += c + m * (m + 1);  // c scalings, m(m+1)/2 update pairs at 2 units
  }
  return work;
}

bool work_ok(count_t reported, std::span<const count_t> factor_col_ptr) {
  return reported == expected_work(factor_col_ptr);
}

bool solves_match(const std::string& stats_doc, std::int64_t answered) {
  return json_number(stats_doc, "net.solves") == static_cast<double>(answered);
}

bool traffic_within_bound(count_t traffic, index_t nprocs, count_t factor_nnz) {
  return traffic >= 0 && traffic <= static_cast<count_t>(nprocs) * factor_nnz;
}

bool volumes_equal(const std::vector<std::vector<count_t>>& measured,
                   std::span<const count_t> analytic, index_t nprocs) {
  const auto np = static_cast<std::size_t>(nprocs);
  if (measured.size() != np || analytic.size() != np * np) return false;
  for (std::size_t dst = 0; dst < np; ++dst) {
    if (measured[dst].size() != np) return false;
    for (std::size_t src = 0; src < np; ++src) {
      if (src != dst && measured[dst][src] != analytic[dst * np + src]) return false;
    }
  }
  return true;
}

std::vector<double> factor_solve(std::span<const count_t> col_ptr,
                                 std::span<const index_t> row_ind,
                                 std::span<const double> values,
                                 std::span<const index_t> perm, std::span<const double> b) {
  const std::size_t n = perm.size();
  std::vector<double> z(n);
  for (std::size_t k = 0; k < n; ++k) z[k] = b[static_cast<std::size_t>(perm[k])];
  for (std::size_t j = 0; j < n; ++j) {  // L y = P b
    const auto s0 = static_cast<std::size_t>(col_ptr[j]);
    const auto s1 = static_cast<std::size_t>(col_ptr[j + 1]);
    z[j] /= values[s0];
    for (std::size_t s = s0 + 1; s < s1; ++s) {
      z[static_cast<std::size_t>(row_ind[s])] -= values[s] * z[j];
    }
  }
  for (std::size_t j = n; j-- > 0;) {  // Lᵀ w = y
    const auto s0 = static_cast<std::size_t>(col_ptr[j]);
    const auto s1 = static_cast<std::size_t>(col_ptr[j + 1]);
    double acc = z[j];
    for (std::size_t s = s0 + 1; s < s1; ++s) {
      acc -= values[s] * z[static_cast<std::size_t>(row_ind[s])];
    }
    z[j] = acc / values[s0];
  }
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[static_cast<std::size_t>(perm[k])] = z[k];
  return x;
}

double json_number(const std::string& doc, const std::string& key,
                   const std::string& within) {
  std::size_t from = 0;
  if (!within.empty()) {
    from = doc.find(within);
    if (from == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  }
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = doc.find(needle, from);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  const char* p = doc.c_str() + at + needle.size();
  while (*p == ' ') ++p;
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  return end == p ? std::numeric_limits<double>::quiet_NaN() : v;
}

}  // namespace perfbench
