/* One SGD epoch of relfactor.train over int64 columns, in example order.
 *
 * Each step is the update rule of train.py, operation for operation as the
 * Python reference train._apply_update performs it: a dot product summed in
 * index order, the stable sigmoid, both deltas taken from pre-step values,
 * then the bias and offset updates. Built with -O2 -ffp-contract=off and
 * without -ffast-math, so no multiply-add is fused and no sum reordered, and
 * the results equal the Python loop's bit for bit.
 */
#include <math.h>
#include <stdint.h>

static double sigmoid(double s)
{
    if (s >= 0.0)
        return 1.0 / (1.0 + exp(-s));
    double z = exp(s);
    return z / (1.0 + z);
}

/* V is (n_entities, k) row-major; b (per entity) and g (per relation id) are
 * NULL when biases are off; scratch holds 2k doubles. Returns the index of
 * the first example whose residual is NaN, after applying it, else -1. */
int64_t run_epoch(double *V, int64_t k, double *b, double *g,
                  const int64_t *rel, const int64_t *rows, const int64_t *cols,
                  const int64_t *y, int64_t n, double gamma, double lam,
                  double *scratch)
{
    double *d1 = scratch, *d2 = scratch + k;
    for (int64_t t = 0; t < n; t++) {
        int64_t i = rows[t], j = cols[t];
        double *v1 = V + i * k, *v2 = V + j * k;
        double s = 0.0;
        for (int64_t d = 0; d < k; d++)
            s += v1[d] * v2[d];
        if (b)
            s += b[i] + b[j] + g[rel[t]];
        double e = (double)y[t] - sigmoid(s);
        double ge = gamma * e;
        for (int64_t d = 0; d < k; d++) {
            d1[d] = ge * v2[d] - (gamma * lam) * v1[d];
            d2[d] = ge * v1[d] - (gamma * lam) * v2[d];
        }
        /* a diagonal cell (i == j) takes d1, then d2, as in Python */
        for (int64_t d = 0; d < k; d++)
            v1[d] += d1[d];
        for (int64_t d = 0; d < k; d++)
            v2[d] += d2[d];
        if (b) {
            double bi = b[i], bj = b[j];
            b[i] = bi + gamma * (e - lam * bi);
            b[j] = bj + gamma * (e - lam * bj);
            g[rel[t]] += ge;
        }
        if (isnan(e))
            return t;
    }
    return -1;
}
