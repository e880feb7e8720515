/* The compiled kernels of relfactor: run_epoch, one SGD epoch of train();
 * parse_rows, the number parser of load_model(), which reads most numbers
 * with integer arithmetic and the rest with strtod; and format_rows, the
 * entity-line writer of save_model() and export-vectors, which prints most
 * numbers as "%.17g" does with integer arithmetic and leaves the rest to
 * Python. parse_rows reads only the biases and coordinates of the entity
 * lines; load_model's one Python walk over the lines checks every key and
 * offset line and raises every error, and reads the numbers itself with
 * float() when parse_rows refuses.
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

/* format_rows: entity lines "<key>\tb=<bias>\t<c1> <c2> ... <ck>\n" of a model
 * file, or "<key>\t<c1>\t...\t<ck>\n" of export-vectors, each number as
 * Python's "%.17g" % x prints it. The digits are exact: D, the 17 significant
 * digits, is round-half-even(|x| * 10^(16-E)) with E = floor(log10 |x|),
 * taken in unsigned __int128 arithmetic from x = m * 2^q (the integer method
 * of exact printers such as Ryu, Adams 2018). For 10^(16-E) >= 1 that is
 * m * 5^(16-E) shifted by q + 16 - E bits, and m * 5^32 < 2^128 bounds E from
 * below at -16; for larger x it is m * 2^q divided by 10^(E-16), and
 * m * 2^q < 2^128 bounds x from above. So the exact range is
 * 1e-16 <= |x| < 2^128, plus both zeros. A row holding any other number
 * (subnormal, non-finite or out of range) is declined: snprintf would round
 * correctly too, but it costs about ten times as much here and writes the
 * decimal point of the numeric locale, so Python writes that row from its
 * "%" template, which stays the reference. Without unsigned __int128 every
 * row is declined. */
#define NUMBER_MAX 24  /* "-1.2345678901234567e+38" and a separator */

#if defined(__SIZEOF_INT128__)
#define EXACT_POW5 32  /* 2^53 * 5^32 < 2^128 */
#define TEN16 10000000000000000ULL

static unsigned __int128 pow5(int p)  /* p <= 2 * FAST_EXP */
{
    return p <= FAST_EXP ? POW5[p] : (unsigned __int128)POW5[FAST_EXP] * POW5[p - FAST_EXP];
}

/* The fraction f of m * 2^q * 10^s beyond its floor: 0, below one half, one
 * half, above one half. */
enum { EXACT, BELOW_HALF, HALF, ABOVE_HALF };

static int fraction(unsigned __int128 rest, unsigned __int128 unit)  /* f = rest / unit */
{
    if (rest == 0)
        return EXACT;
    return rest < unit - rest ? BELOW_HALF : rest == unit - rest ? HALF : ABOVE_HALF;
}

/* floor(m * 2^q * 10^s) into *d and its fraction into *f; returns 0 when that
 * cannot be had exactly in 128 bits or the floor is not below 2^64. */
static int scaled(uint64_t m, int q, int s, uint64_t *d, int *f)
{
    unsigned __int128 n, quo;
    if (s >= 0) {
        if (s > EXACT_POW5)
            return 0;
        n = (unsigned __int128)m * pow5(s);
        int t = q + s;
        if (t >= 0) {
            if (t > 64 || (n >> (64 - t)) != 0)
                return 0;
            *d = (uint64_t)(n << t);
            *f = EXACT;
            return 1;
        }
        if (t <= -128)
            return 0;
        quo = n >> -t;
        *f = fraction(n - (quo << -t), (unsigned __int128)1 << -t);
    } else {
        int p = -s;
        if (q < 0 || q > 128 - 53 || p > 38)
            return 0;
        n = (unsigned __int128)m << q;
        unsigned __int128 ten = pow5(p) << p;
        quo = n / ten;
        *f = fraction(n - quo * ten, ten);
    }
    if (quo >> 64)
        return 0;
    *d = (uint64_t)quo;
    return 1;
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static void write8(char *out, uint32_t x)  /* the 8 digits of x < 10^8 */
{
    uint32_t a = x / 10000, b = x % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (a / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (a % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (b / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (b % 100), 2);
}

/* Writes x at out as "%.17g" % x and returns the end, or NULL when x is
 * outside the exact range. */
static char *write_g17(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased == 0x7ff || (biased == 0 && frac))
        return NULL;
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0) {
        *out++ = '0';
        return out;
    }
    uint64_t m = frac | 1ULL << 52;
    int q = biased - 1075;  /* |x| = m * 2^q, 2^(q+52) <= |x| < 2^(q+53) */
    /* e = floor((q+52) log10 2), exact for |q+52| <= 1650 (Ryu's log10Pow2),
     * so e <= E <= e + 1 for E = floor(log10 |x|) */
    int n2 = q + 52, e = n2 >= 0 ? (n2 * 78913) >> 18 : -((-n2 * 78913 >> 18) + 1);
    if (16 - e > EXACT_POW5)  /* E may still be in range: then E = e + 1 */
        e++;
    uint64_t d;
    int f;
    if (!scaled(m, q, 16 - e, &d, &f) || d < TEN16)  /* d < 10^16: E = e - 1 < -16 */
        return NULL;
    int up;
    if (d >= 10 * TEN16) {  /* E = e + 1: one digit more to round off */
        int last = (int)(d % 10);
        d /= 10;
        e++;
        up = last > 5 || (last == 5 && (f != EXACT || (d & 1)));
    } else {
        up = f == ABOVE_HALF || (f == HALF && (d & 1));
    }
    d += up;
    if (d == 10 * TEN16) {  /* the carry: 9.99...95e(E) rounds to 1e(E+1) */
        d = TEN16;
        e++;
    }
    char digits[17];
    uint32_t hi = (uint32_t)(d / 100000000);  /* below 10^9 */
    digits[0] = (char)('0' + hi / 100000000);
    write8(digits + 1, hi % 100000000);
    write8(digits + 9, (uint32_t)(d % 100000000));
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    if (e < -4 || e >= 17) {  /* %g's scientific notation; here |e| <= 38 */
        *out++ = digits[0];
        if (nd > 1) {
            *out++ = '.';
            memcpy(out, digits + 1, (size_t)(nd - 1));
            out += nd - 1;
        }
        *out++ = 'e';
        *out++ = e < 0 ? '-' : '+';
        int a = e < 0 ? -e : e;
        *out++ = (char)('0' + a / 10);
        *out++ = (char)('0' + a % 10);
    } else if (e >= 0) {
        int whole = e + 1;
        memcpy(out, digits, (size_t)(nd < whole ? nd : whole));
        if (nd <= whole) {
            memset(out + nd, '0', (size_t)(whole - nd));
            out += whole;
        } else {
            out += whole;
            *out++ = '.';
            memcpy(out, digits + whole, (size_t)(nd - whole));
            out += nd - whole;
        }
    } else {
        *out++ = '0';
        *out++ = '.';
        memset(out, '0', (size_t)(-e - 1));
        out += -e - 1;
        memcpy(out, digits, (size_t)nd);
        out += nd;
    }
    return out;
}
#else
static char *write_g17(char *out, double x)
{
    (void)out, (void)x;
    return NULL;
}
#endif

/* Row r's key is keys[offsets[r]:offsets[r+1]], its bias biases[r] (no bias
 * field when biases is NULL) and its coordinates row r of vectors, which is
 * (n, k) row-major; the coordinates are separated by sep. The lines go to
 * out, which holds capacity bytes, and *length gets the bytes written.
 * Returns the number of whole rows written: n, or the index of the first row
 * that holds a number outside the exact range or might not fit in what is
 * left of out, none of which is written. */
int64_t format_rows(const char *keys, const int64_t *offsets, const double *biases,
                    const double *vectors, int64_t n, int64_t k, char sep,
                    char *out, int64_t capacity, int64_t *length)
{
    char *p = out;
    int64_t row = 0;
    for (; row < n; row++) {
        int64_t key = offsets[row + 1] - offsets[row];
        if (capacity - (p - out) < key + 4 + (k + 1) * NUMBER_MAX)
            break;
        char *q = p;
        memcpy(q, keys + offsets[row], (size_t)key);
        q += key;
        *q++ = '\t';
        if (biases) {
            *q++ = 'b';
            *q++ = '=';
            if (!(q = write_g17(q, biases[row])))
                break;
            *q++ = '\t';
        }
        const double *v = vectors + row * k;
        for (int64_t d = 0; d < k && q; d++) {
            if (d)
                *q++ = sep;
            q = write_g17(q, v[d]);
        }
        if (!q)
            break;
        *q++ = '\n';
        p = q;
    }
    *length = p - out;
    return row;
}
