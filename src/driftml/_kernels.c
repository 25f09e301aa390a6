/* The compiled kernels of driftml's classifiers. Each works in a fixed
 * order, so its bytes depend on nothing but its inputs. Build without
 * -ffast-math and with -ffp-contract=off, so the compiler neither reorders
 * a sum nor fuses a product into an add.
 *
 * sgd_fit: a multinomial logistic model's minibatch SGD, all its epochs.
 * Each epoch draws its row order as numpy's Generator.permutation(n) does,
 * from the bit generator at state with its next_uint32 and next_uint64
 * (the caller holds its lock): rows = 0..n-1, then for i = n-1 down to 1 a
 * swap of rows[i] and rows[j], j = interval(i). Minibatch i holds the rows
 * rows[i*m .. i*m + m) of X (n x d) and of the class indices y; the last
 * one may be shorter. Each step copies its rows into xb (m x d), then:
 *   - each logit sums x[j] * W[j][c] over j = 0..d-1 from 0.0, then adds
 *     b[c] (four rows at a time, each its own sum);
 *   - the softmax takes the row's max (a later entry replaces it only when
 *     it compares greater, so a NaN entry wins only in column 0), subtracts
 *     it, takes exp, sums the classes in order from 0.0 and divides;
 *   - err = (p - (c == y ? 1 : 0)) / mb, for the minibatch's row count mb;
 *   - each gradient entry sums over the minibatch rows in row order from
 *     0.0 (four features at a time, each its own sum);
 *     W[j][c] -= (g + l2 * W[j][c]) * rate and b[c] -= g_b * rate.
 * Every y is in [0, C). rows (n int64) and scratch (m * (d + C) doubles:
 * xb, then the logits and err, m x C) are scratch.
 *
 * knn_votes: the k-NN vote shares of rows query rows against n_ref
 * references, from prod = (2 x) r^T (rows x n_ref), sq = |x|^2 per row and
 * ref_sq = |r|^2 per reference. Row i's distance to reference j is
 * (sq[i] - prod[i][j]) + ref_sq[j]. The row keeps its k_max nearest
 * references ordered by (distance, reference index), NaN after every
 * number: the first k_max of a stable argsort. Model m then gets
 * count_c / k[m] over the first k[m] of those (k[m] <= k_max; 0 / 0 for
 * k[m] = 0) in row at + i of its (rows, C) output outs[m]. Every ref_y is
 * in [0, C). near (k_max doubles) and labels (k_max + C int64) are scratch.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's random_interval: a draw in [0, max], max > 0, by masked rejection
 * (32-bit draws while max fits in them). */
static uint64_t interval(void *state, uint32_t (*next32)(void *),
                         uint64_t (*next64)(void *), uint64_t max)
{
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL)
        while ((value = (next32(state) & mask)) > max)
            ;
    else
        while ((value = (next64(state) & mask)) > max)
            ;
    return value;
}

/* e[i][c] = sum_j xb[i][j] * W[j][c] + b[c] for the mb rows of xb. */
static void logits(const double *xb, int64_t mb, int64_t d, int64_t C,
                   const double *W, const double *b, double *e)
{
    int64_t i = 0;
    for (; i + 4 <= mb; i += 4) {
        const double *x0 = xb + i * d, *x1 = x0 + d, *x2 = x1 + d, *x3 = x2 + d;
        for (int64_t c = 0; c < C; c++) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t j = 0; j < d; j++) {
                double w = W[j * C + c];
                s0 += x0[j] * w;
                s1 += x1[j] * w;
                s2 += x2[j] * w;
                s3 += x3[j] * w;
            }
            e[i * C + c] = s0 + b[c];
            e[(i + 1) * C + c] = s1 + b[c];
            e[(i + 2) * C + c] = s2 + b[c];
            e[(i + 3) * C + c] = s3 + b[c];
        }
    }
    for (; i < mb; i++) {
        const double *x = xb + i * d;
        for (int64_t c = 0; c < C; c++) {
            double s = 0.0;
            for (int64_t j = 0; j < d; j++)
                s += x[j] * W[j * C + c];
            e[i * C + c] = s + b[c];
        }
    }
}

/* One step on the mb rows of xb, labels y[take[i]], logits in err. */
static void step(const double *xb, const int64_t *y, const int64_t *take,
                 int64_t mb, int64_t d, int64_t C, double *W, double *b,
                 double rate, double l2, double *err)
{
    for (int64_t i = 0; i < mb; i++) {
        double *e = err + i * C, max = e[0], sum = 0.0;
        for (int64_t c = 1; c < C; c++)
            if (e[c] > max)
                max = e[c];
        for (int64_t c = 0; c < C; c++) {
            e[c] = exp(e[c] - max);
            sum += e[c];
        }
        for (int64_t c = 0; c < C; c++)
            e[c] = (e[c] / sum - (c == y[take[i]] ? 1.0 : 0.0)) / (double)mb;
    }
    for (int64_t c = 0; c < C; c++) {
        int64_t j = 0;
        double g;
        for (; j + 4 <= d; j += 4) {
            double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0, *w = W + j * C + c;
            for (int64_t i = 0; i < mb; i++) {
                const double *x = xb + i * d + j;
                double e = err[i * C + c];
                g0 += x[0] * e;
                g1 += x[1] * e;
                g2 += x[2] * e;
                g3 += x[3] * e;
            }
            w[0] -= (g0 + l2 * w[0]) * rate;
            w[C] -= (g1 + l2 * w[C]) * rate;
            w[2 * C] -= (g2 + l2 * w[2 * C]) * rate;
            w[3 * C] -= (g3 + l2 * w[3 * C]) * rate;
        }
        for (; j < d; j++) {
            g = 0.0;
            for (int64_t i = 0; i < mb; i++)
                g += xb[i * d + j] * err[i * C + c];
            W[j * C + c] -= (g + l2 * W[j * C + c]) * rate;
        }
        g = 0.0;
        for (int64_t i = 0; i < mb; i++)
            g += err[i * C + c];
        b[c] -= g * rate;
    }
}

void sgd_fit(const double *X, const int64_t *y, int64_t n, int64_t d, int64_t C,
             int64_t m, int64_t epochs, double rate, double l2, void *state,
             uint32_t (*next32)(void *), uint64_t (*next64)(void *),
             double *W, double *b, int64_t *rows, double *scratch)
{
    double *xb = scratch, *err = scratch + m * d;
    for (int64_t epoch = 0; epoch < epochs; epoch++) {
        for (int64_t i = 0; i < n; i++)
            rows[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)interval(state, next32, next64, (uint64_t)i), r = rows[i];
            rows[i] = rows[j];
            rows[j] = r;
        }
        for (int64_t start = 0; start < n; start += m) {
            int64_t mb = n - start < m ? n - start : m;
            const int64_t *take = rows + start;
            for (int64_t i = 0; i < mb; i++)
                memcpy(xb + i * d, X + take[i] * d, (size_t)d * sizeof(double));
            logits(xb, mb, d, C, W, b, err);
            step(xb, y, take, mb, d, C, W, b, rate, l2, err);
        }
    }
}

/* Whether distance a sorts after distance d when a's reference comes first:
 * a is greater, or a is NaN and d is not. */
static int after(double a, double d)
{
    return a > d || (a != a && d == d);
}

void knn_votes(const double *prod, const double *sq, const double *ref_sq,
               const int64_t *ref_y, int64_t rows, int64_t n_ref, int64_t C,
               const int64_t *k, double *const *outs, int64_t n_out, int64_t at,
               double *near, int64_t *labels)
{
    int64_t k_max = 0, *count;
    for (int64_t m = 0; m < n_out; m++)
        if (k[m] > k_max)
            k_max = k[m];
    count = labels + k_max;
    for (int64_t i = 0; i < rows; i++) {
        const double *p = prod + i * n_ref;
        int64_t kept = 0;
        for (int64_t j = 0; j < n_ref; j++) {
            double d = (sq[i] - p[j]) + ref_sq[j];
            int64_t pos;
            if (kept < k_max)
                pos = kept++;
            else if (after(near[k_max - 1], d))
                pos = k_max - 1;
            else
                continue;
            for (; pos > 0 && after(near[pos - 1], d); pos--) {
                near[pos] = near[pos - 1];
                labels[pos] = labels[pos - 1];
            }
            near[pos] = d;
            labels[pos] = ref_y[j];
        }
        for (int64_t c = 0; c < C; c++)
            count[c] = 0;
        for (int64_t taken = 0; taken <= k_max; taken++) {
            for (int64_t m = 0; m < n_out; m++)
                if (k[m] == taken) {
                    double *o = outs[m] + (at + i) * C;
                    for (int64_t c = 0; c < C; c++)
                        o[c] = (double)count[c] / (double)taken;
                }
            if (taken < k_max)
                count[labels[taken]]++;
        }
    }
}
