/* The compiled kernels of relfactor: run_epoch, one SGD epoch of train(),
 * and parse_rows, the number parser of load_model(), which reads most
 * numbers with integer arithmetic and the rest with strtod. parse_rows
 * reads only the biases and coordinates of the entity lines; load_model's
 * one Python walk over the lines checks every key and offset line and
 * raises every error, and reads the numbers itself with float() when
 * parse_rows refuses.
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

/* parse_rows: the bias and coordinates of every entity line of a model file.
 * A number is accepted only when it is a run of [0-9.eE+-] of at most
 * TOKEN_MAX bytes that is a whole decimal, is finite and ends at its
 * separator. Every accepted number is correctly rounded, so it has the bits
 * Python float() gives it. Anything else (hex, nan, inf, blanks, underscores)
 * refuses the line.
 *
 * A token is first read by fast_decimal, straight from the text with integer
 * arithmetic (Clinger 1990; Lemire 2021): at most 19 significant digits m
 * and a decimal exponent e in -27..27, which covers every %.17g number
 * between 1e-11 and 1e28 in magnitude. 5^27 < 2^63, so m * 5^e fits in 128
 * bits for e >= 0; for e < 0 the normalised m, shifted left by 64, is
 * divided by 5^-e, with a sticky bit for a nonzero remainder. The integer
 * is rounded once to 53 bits, half to even, and scaled by its power of two
 * with ldexp, which is exact in this range. Every token fast_decimal
 * declines is copied out and read with strtod; glibc strtod rounds
 * correctly too, but refuses a token under a numeric locale whose decimal
 * point is not ".". Without unsigned __int128 every token goes to strtod. */
#define TOKEN_MAX 40

static int is_number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

#if defined(__SIZEOF_INT128__)
#define FAST_DIGITS 19  /* 10^19 - 1 < 2^64 */
#define FAST_EXP 27     /* 5^27 < 2^63 */

static const uint64_t POW5[FAST_EXP + 1] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL};

/* Reads the decimal at s, before end, into *out, correctly rounded, and
 * returns the end of it; NULL declines the decimal, which is then strtod's
 * to read or refuse. A decimal is [+-]digits[.digits] or [+-][digits].digits
 * with at least one digit, then an optional [eE][+-]digits. */
static const char *fast_decimal(const char *s, const char *end, double *out)
{
    int neg = s < end && *s == '-';
    if (s < end && (*s == '+' || *s == '-'))
        s++;
    const char *start = s;
    while (s < end && *s == '0')
        s++;
    const char *sig = s;  /* the first significant digit, in m */
    uint64_t m = 0;       /* wraps past 19 digits, which are declined */
    for (; s < end && (unsigned)(*s - '0') < 10; s++)
        m = m * 10 + (uint64_t)(*s - '0');
    int64_t digits = s - sig, e = 0;
    int any = s > start;
    if (s < end && *s == '.') {
        const char *frac = ++s;
        if (m == 0)
            while (s < end && *s == '0')
                s++;
        sig = s;
        for (; s < end && (unsigned)(*s - '0') < 10; s++)
            m = m * 10 + (uint64_t)(*s - '0');
        digits += s - sig;
        e = frac - s;
        any |= s > frac;
    }
    if (!any || digits > FAST_DIGITS)
        return NULL;
    if (s < end && (*s == 'e' || *s == 'E')) {
        s++;
        int eneg = s < end && *s == '-';
        if (s < end && (*s == '+' || *s == '-'))
            s++;
        const char *x0 = s;
        int64_t x = 0;
        for (; s < end && (unsigned)(*s - '0') < 10; s++)
            if (x < 1000000)  /* far past the range; a longer run only adds digits */
                x = x * 10 + (*s - '0');
        if (s == x0)
            return NULL;
        e += eneg ? -x : x;
    }
    if (m == 0) {
        *out = neg ? -0.0 : 0.0;
        return s;
    }
    if (e < -FAST_EXP || e > FAST_EXP)
        return NULL;

    /* value = (n + a fraction below one, nonzero iff sticky) * 2^bexp */
    unsigned __int128 n;
    int bexp, sticky = 0;
    if (e >= 0) {
        n = (unsigned __int128)m * POW5[e];
        bexp = (int)e;
    } else {
        int z = __builtin_clzll(m);
        unsigned __int128 num = (unsigned __int128)(m << z) << 64;
        n = num / POW5[-e];
        sticky = n * POW5[-e] != num;
        bexp = (int)e - 64 - z;
    }
    uint64_t hi = (uint64_t)(n >> 64);
    int bits = hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((uint64_t)n);
    if (bits > 53) {
        int shift = bits - 53;
        unsigned __int128 half = (unsigned __int128)1 << (shift - 1);
        unsigned __int128 rest = n & ((half << 1) - 1);
        uint64_t mant = (uint64_t)(n >> shift);
        if (rest > half || (rest == half && (sticky || (mant & 1))))
            mant++;  /* may reach 2^53, which is still exact */
        n = mant;
        bexp += shift;
    }
    double x = ldexp((double)(uint64_t)n, bexp);
    *out = neg ? -x : x;
    return s;
}
#else
static const char *fast_decimal(const char *s, const char *end, double *out)
{
    (void)s, (void)end, (void)out;
    return NULL;
}
#endif

/* Reads the number at *p into *out and moves *p past the separator sep that
 * must follow it; a '\n' separator may also be the end of the text. A token
 * that fast_decimal does not read whole is copied out first, so strtod
 * never reads past it. */
static int read_number(const char **p, const char *end, char sep, double *out)
{
    const char *s = *p, *t = fast_decimal(s, end, out);
    if (!t || t - s > TOKEN_MAX || (t < end ? *t != sep : sep != '\n')) {
        t = s;
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
    }
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
