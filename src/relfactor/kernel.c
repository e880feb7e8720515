/* The compiled kernels of relfactor: run_epoch, one SGD epoch of train(),
 * and parse_rows, the number parser of load_model(). parse_rows reads only
 * the biases and coordinates of the entity lines; load_model's one Python
 * walk over the lines checks every key and offset line and raises every
 * error, and reads the numbers itself with float() when parse_rows refuses.
 *
 * run_epoch runs the epoch over int64 columns, in example order. Each step
 * is the update rule of train.py, operation for operation as the Python
 * reference train._apply_update performs it: a dot product summed in index
 * order, the stable sigmoid, both deltas taken from pre-step values, then
 * the bias and offset updates. Built with -O2 -ffp-contract=off and without
 * -ffast-math, so no multiply-add is fused and no sum reordered, and the
 * results equal the Python loop's bit for bit.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static double sigmoid(double s)
{
    if (s >= 0.0)
        return 1.0 / (1.0 + exp(-s));
    double z = exp(s);
    return z / (1.0 + z);
}

/* V is (n_entities, k) row-major; b (per entity) and g (per relation id) are
 * NULL when biases are off. Returns the index of the first example whose
 * residual is NaN, after applying it, else -1. */
int64_t run_epoch(double *V, int64_t k, double *b, double *g,
                  const int64_t *rel, const int64_t *rows, const int64_t *cols,
                  const int64_t *y, int64_t n, double gamma, double lam)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t i = rows[t], j = cols[t];
        double *v1 = V + i * k, *v2 = V + j * k;
        double s = 0.0;
        for (int64_t d = 0; d < k; d++)
            s += v1[d] * v2[d];
        if (b)
            s += b[i] + b[j] + g[rel[t]];
        double e = (double)y[t] - sigmoid(s);
        double ge = gamma * e, gl = gamma * lam;
        /* Coordinate d's two deltas read only coordinate d of v1 and v2, so
         * one loop takes both from pre-step values and applies them at once.
         * A diagonal cell (i == j) has v1 == v2: d1 and d2 both come from
         * the pre-step value, and v2[d] += d2 reads v1[d] after d1 is added,
         * as Python's vectors[i] += d1; vectors[j] += d2 does. */
        for (int64_t d = 0; d < k; d++) {
            double a = v1[d], c = v2[d];
            double d1 = ge * c - gl * a, d2 = ge * a - gl * c;
            v1[d] = a + d1;
            v2[d] += d2;
        }
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

/* parse_rows: the bias and coordinates of every entity line of a model file,
 * read with strtod. A number is accepted only when it is a run of
 * [0-9.eE+-] of at most TOKEN_MAX bytes that strtod reads whole, is finite
 * and ends at its separator. On that grammar glibc strtod and Python float()
 * both round correctly, so an accepted number has the bits float() gives it.
 * Anything else (hex, nan, inf, blanks, underscores, or a numeric locale
 * whose decimal point is not ".") refuses the line. */
#define TOKEN_MAX 40

static int is_number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/* Reads the number at *p into *out and moves *p past the separator sep that
 * must follow it; a '\n' separator may also be the end of the text.
 * The token is copied out first, so strtod never reads past it. */
static int read_number(const char **p, const char *end, char sep, double *out)
{
    const char *s = *p, *t = s;
    while (t < end && t - s <= TOKEN_MAX && is_number_char(*t))
        t++;
    size_t n = (size_t)(t - s);
    if (n == 0 || n > TOKEN_MAX || (t < end ? *t != sep : sep != '\n'))
        return 0;
    char token[TOKEN_MAX + 1], *stop;
    memcpy(token, s, n);
    token[n] = '\0';
    double x = strtod(token, &stop);
    if (stop != token + n || !isfinite(x))
        return 0;
    *out = x;
    *p = t < end ? t + 1 : t;
    return 1;
}

/* text[start:len] holds the entity and offset lines of a model file, lines
 * split at '\n'. Empty lines and lines starting with "offset " are skipped;
 * every other line must read "<key>\tb=<bias>\t<c1> <c2> ... <ck>" with no
 * tab in the key. Row r's bias goes to biases[r] and its coordinates to row
 * r of vectors, which is (max_rows, k) row-major. Only the numbers are read
 * here: the keys and the offset lines are load_model's to check. Returns the
 * number of entity lines read, or -1 when a line is refused or there are
 * more than max_rows entity lines. */
int64_t parse_rows(const char *text, int64_t start, int64_t len, int64_t k,
                   double *biases, double *vectors, int64_t max_rows)
{
    const char *p = text + (start < len ? start : len), *end = text + len;
    int64_t row = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        if (end - p >= 7 && memcmp(p, "offset ", 7) == 0) {
            const char *nl = memchr(p, '\n', (size_t)(end - p));
            p = nl ? nl + 1 : end;
            continue;
        }
        if (row == max_rows)
            return -1;
        while (p < end && *p != '\t' && *p != '\n')
            p++;
        if (end - p < 3 || p[0] != '\t' || p[1] != 'b' || p[2] != '=')
            return -1;
        p += 3;
        if (!read_number(&p, end, '\t', biases + row))
            return -1;
        double *v = vectors + row * k;
        for (int64_t d = 0; d < k; d++)
            if (!read_number(&p, end, d + 1 < k ? ' ' : '\n', v + d))
                return -1;
        row++;
    }
    return row;
}
